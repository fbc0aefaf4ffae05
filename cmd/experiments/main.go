// Command experiments regenerates every table and figure of the paper
// (experiments E1–E10, indexed in internal/expt's package comment) plus the
// ablations, printing them to stdout.
//
// Usage:
//
//	experiments                  # all experiments at the default 20k scale
//	experiments -run E2,E5       # a subset
//	experiments -scale paper     # E7 at the paper's 977k-vertex scale
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"cexplorer/internal/expt"
	"cexplorer/internal/gen"
)

func main() {
	var (
		run   = flag.String("run", "", "comma-separated experiment ids (default: all)")
		scale = flag.String("scale", "default", "dataset scale: default | small | paper")
		seed  = flag.Int64("seed", 1, "dataset seed")
	)
	flag.Parse()

	var cfg gen.DBLPConfig
	switch *scale {
	case "default":
		cfg = gen.DefaultDBLPConfig()
	case "small":
		cfg = gen.SmallDBLPConfig()
	case "paper":
		cfg = gen.PaperScaleConfig()
	default:
		log.Fatalf("unknown scale %q", *scale)
	}
	cfg.Seed = *seed

	want := map[string]bool{}
	for _, id := range strings.Split(*run, ",") {
		if id = strings.TrimSpace(strings.ToUpper(id)); id != "" {
			want[id] = true
		}
	}
	selected := func(id string) bool { return len(want) == 0 || want[id] }

	needEnv := false
	for _, id := range []string{"E2", "E3", "E4", "E5", "E7", "E8", "E9", "AB1", "AB4"} {
		if selected(id) {
			needEnv = true
		}
	}
	var env *expt.Env
	if needEnv {
		fmt.Fprintf(os.Stderr, "generating dataset (%d authors, seed %d)...\n", cfg.Authors, cfg.Seed)
		env = expt.NewEnv(cfg)
		st := env.DBLP.Graph.ComputeStats()
		fmt.Printf("dataset: %d vertices, %d edges, avg degree %.2f, %d distinct keywords\n\n",
			st.Vertices, st.Edges, st.AvgDegree, st.Keywords)
	}

	w := os.Stdout
	check := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	section := func() { fmt.Fprintln(w) }

	if selected("E1") {
		check(expt.E1Figure5(w))
		section()
	}
	var rows []expt.Fig6aRow
	if selected("E2") || selected("E3") {
		var err error
		rows, err = expt.E2Fig6aTable(w, env)
		check(err)
		section()
	}
	if selected("E3") {
		expt.E3QualityBars(w, rows)
		section()
	}
	if selected("E4") {
		check(expt.E4Exploration(w, env))
		section()
	}
	if selected("E5") {
		_, err := expt.E5ACQAlgorithms(w, env, []int{2, 4, 6, 8}, []int32{4, 6})
		check(err)
		section()
	}
	if selected("E6") {
		expt.E6CLTreeScaling(w, []int{10000, 20000, 40000, 80000, 160000})
		section()
	}
	if selected("E7") {
		check(expt.E7PaperScale(w, env, 20))
		section()
	}
	if selected("E8") {
		expt.E8GlobalVsLocal(w, env)
		section()
	}
	if selected("E9") {
		check(expt.E9Visual(w, env))
		section()
	}
	if selected("E10") {
		check(expt.E10APIRoundTrip(w))
		section()
	}
	if selected("AB1") {
		check(expt.AblationIndexVsNoIndex(w, env, 8))
		section()
	}
	if selected("AB2") {
		expt.AblationCoreDecomposition(w, 20000)
		section()
	}
	if selected("AB3") {
		expt.AblationLayout(w, []int{200, 800, 3200})
		section()
	}
	if selected("AB4") {
		expt.AblationCodicilSparsify(w, env)
		section()
	}
}
