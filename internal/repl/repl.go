// Package repl is the replication subsystem: it promotes the per-dataset
// mutation journal (the durable CXJRNL log of internal/snapshot) into a
// replication stream so read replicas can serve the full query API.
//
// Three roles cooperate:
//
//   - Feed runs on the primary. Every write publishes itself at its commit
//     point, before it is applied — as a pre-encoded journal frame keyed by
//     the Version it produces — into a bounded per-dataset ring; a drained
//     feed refuses it, and the write is not applied. Ship answers the
//     journal-shipping endpoint: return buffered frames from a sequence
//     number, or long-poll until one arrives. Every way a cursor can be
//     stranded (buffer trimmed past fromSeq, re-upload starting a fresh
//     lineage, primary restart) funnels into one signal: the fence. A
//     fenced replica throws away its tail position and re-bootstraps from
//     a snapshot; it never applies a record it cannot prove contiguous.
//
//   - Replica tails a primary. Per dataset it bootstraps from the
//     primary's snapshot endpoint, then tails the journal and applies each
//     record through Explorer.Mutate — the same incremental-maintenance
//     path the primary used, bypassing the write batcher and the local
//     journal (the primary's journal is the source of truth). It tracks
//     (snapshotEpoch, appliedSeq, Version) per dataset, retries with
//     exponential backoff when the primary is unreachable, and keeps
//     serving its last-applied version meanwhile (graceful degradation).
//
//   - Router fronts the fleet. Mutations and uploads go to the primary;
//     dataset reads fan out across replicas by consistent hashing on the
//     dataset name (stable per-dataset affinity keeps exploration sessions
//     and result caches hot); anything that fails over — transport error,
//     5xx, or a replica answering 503 replica_lagging — falls back along
//     the hash ring and finally to the primary.
//
// Read-your-writes rides the existing Version counter: a mutation response
// carries the version it produced; a client echoes it back as the
// X-CExplorer-Min-Version header; a replica serving that read waits (up to
// a bound) until its applied version catches up, else answers 503
// replica_lagging and the router forwards to the primary. Sequence numbers
// ARE versions: journal record N is the batch that produced Version N, so
// "replica applied seq N" and "replica serves Version N" are one fact.
//
// # Fault model
//
// The fleet is hardened against (and chaos-tested under, via internal/chaos
// and the chaos-convergence suite) the failure modes a real network hands
// it:
//
//   - Stalls and blackholes are bounded, never fatal: every request a
//     replica issues has a per-phase deadline (HeaderTimeout to first
//     header byte — plus PollWait for journal long-polls the primary
//     legitimately parks — then StallTimeout between body reads), so a
//     blackholed primary costs one bounded stall and a backoff, not a
//     wedged tailer. Deliberately NOT a whole-request timeout: a large
//     snapshot stream that keeps making progress is never killed.
//   - Corruption and truncation never reach the graph: journal frames are
//     CRC-framed and snapshots checksummed, so a flipped or torn byte
//     fails the read and the replica reconnects from its last applied
//     sequence. Convergence is delayed, never poisoned.
//   - Anything that breaks stream contiguity — trimmed buffer, re-upload,
//     primary restart, apply divergence — fences, and a fenced replica
//     re-bootstraps from a snapshot rather than guess.
//   - A dataset deleted at the primary is dropped at the replicas too:
//     MissingLimit consecutive 404 answers un-claim it (and re-discovery
//     re-claims if it reappears), instead of serving a ghost stale forever.
//   - The router relays upstream deaths honestly: a response dying
//     mid-body aborts the client connection (http.ErrAbortHandler, counted
//     in relayAborts) rather than passing off a truncated 200 as complete.
//     Plain reads fail over along the ring to the primary; session-scoped
//     routes (/explore...) stay pinned to the home node, because a ring
//     walk cannot revive server-side session state that lives only there.
//
// Degradation is by design, not by accident: through all of the above a
// replica keeps serving its last-applied version, and convergence resumes
// when the fault clears.
//
// # Promotion protocol (automatic failover)
//
// The primary is the only single point of failure the fault model above
// leaves standing, so the router doubles as the failure detector and
// promotion coordinator:
//
//  1. Detect. The router's Monitor probes every node's GET /api/v1/health
//     on a fixed cadence with a per-probe deadline and keeps a circuit
//     breaker per node: FailThreshold consecutive probe failures open the
//     circuit (the node leaves the read ring immediately; open nodes are
//     re-probed on exponential backoff), one success moves it to half-open,
//     and a second closes it again.
//  2. Elect. When the primary's circuit opens and promotion is enabled,
//     the router ranks the reachable replicas by total appliedSeq (from
//     their last health payloads) and asks the best one to promote. Each
//     candidate gets a fresh fleet epoch, one above the highest the router
//     has observed or handed out, so a candidate whose promotion applied
//     but whose answer was lost never shares an epoch with the next. The
//     candidate independently re-verifies it is the most caught up among
//     the reachable peers (409 not_caught_up sends the router to the next
//     candidate), stops its tailer, opens its own journal Feed — with
//     a fresh, boot-salted snapshot epoch no old cursor can match — and
//     flips to accepting writes. A restarted router needs no memory of
//     past elections: it adopts the highest-epoch node claiming primacy,
//     and never stamps writes with an epoch a replica reports.
//  3. Re-target. Surviving replicas are pointed at the new primary
//     (Replica.Retarget); their first shipping request against the new
//     feed fences on the epoch mismatch and they re-bootstrap from the new
//     primary's snapshots.
//  4. Fence the past. Every write the router forwards is stamped with the
//     fleet epoch (X-CExplorer-Fleet-Epoch); a node whose own epoch
//     differs answers 409 epoch_fenced without applying, so a stale
//     primary that comes back can never acknowledge a routed write. When
//     the old primary reappears, the router sees its stale epoch and
//     demotes it: it drops its feed, starts a tailer against the new
//     primary, and re-bootstraps — the new primary's lineage wins.
//
// During the election window reads keep flowing from the replicas while
// writes answer a typed 503 no_primary with Retry-After, bounding write
// unavailability at roughly (FailThreshold × probe interval) + one
// promotion round trip.
//
// The failure model is asynchronous replication, stated plainly: a
// mutation acknowledged by the old primary but not yet shipped when the
// primary died is LOST on promotion. The fleet converges on the new
// primary's lineage; durability of acknowledged-but-unshipped writes is
// bounded by replication lag, not zero.
package repl

import (
	"cexplorer/internal/api"
	"cexplorer/internal/snapshot"
)

// Protocol headers shared by primary, replica, and router.
const (
	// HeaderEpoch carries the snapshot epoch of a shipping response or
	// bootstrap snapshot. Epochs are unique per (process boot, lineage):
	// an epoch mismatch always means "your position is meaningless,
	// re-bootstrap".
	HeaderEpoch = "X-CExplorer-Epoch"
	// HeaderHeadSeq is the primary's newest applied sequence (== Version)
	// for the dataset, or a replica's last observed primary head.
	HeaderHeadSeq = "X-CExplorer-Head-Seq"
	// HeaderBaseSeq is the oldest sequence still shippable from the feed
	// buffer plus one is the first available record; fromSeq at or below
	// the base is fenced.
	HeaderBaseSeq = "X-CExplorer-Base-Seq"
	// HeaderVersion is the dataset Version embedded in a bootstrap
	// snapshot response.
	HeaderVersion = "X-CExplorer-Version"
	// HeaderMinVersion is the read-your-writes request header: the client
	// echoes the Version a mutation response reported, and the serving
	// node guarantees the read observes that version or newer (or answers
	// 503 replica_lagging so the router can forward to the primary).
	HeaderMinVersion = "X-CExplorer-Min-Version"
	// HeaderServedBy is stamped by the router with the upstream node that
	// actually answered.
	HeaderServedBy = "X-CExplorer-Served-By"
	// HeaderFleetEpoch stamps a routed write with the router's fleet epoch
	// (the promotion counter, distinct from each dataset's snapshot epoch).
	// A node whose own fleet epoch differs answers 409 epoch_fenced
	// without applying: the split-brain guard that keeps a stale primary
	// from acknowledging writes after a promotion.
	HeaderFleetEpoch = "X-CExplorer-Fleet-Epoch"
)

// Error envelope codes introduced by replication (the envelope shape is the
// server's usual {"error","code"}).
const (
	// CodeEpochFenced (HTTP 409): the requested (epoch, fromSeq) cursor
	// cannot be served contiguously; re-bootstrap.
	CodeEpochFenced = "epoch_fenced"
	// CodeReplicaLagging (HTTP 503): the replica could not reach the
	// requested min-version within its wait budget.
	CodeReplicaLagging = "replica_lagging"
	// CodeReadOnly (HTTP 403): a mutation or upload reached a replica.
	CodeReadOnly = "read_only"
	// CodeNoPrimary (HTTP 503): the fleet has no reachable primary (an
	// election is in progress, or a demoted node no longer hosts a feed).
	// Always served with Retry-After; the write is safe to retry.
	CodeNoPrimary = "no_primary"
	// CodeNotCaughtUp (HTTP 409): a promotion candidate found a reachable
	// peer with a higher applied sequence and refused the promotion.
	CodeNotCaughtUp = "not_caught_up"
)

// ContentTypeJournal is the media type of a journal-shipping response body:
// a concatenation of CXJRNL frames (no file header).
const ContentTypeJournal = "application/x-cexplorer-journal"

// ToJournalOps maps API mutations to journal ops (the wire/disk encoding).
func ToJournalOps(ops []api.Mutation) []snapshot.JournalOp {
	out := make([]snapshot.JournalOp, len(ops))
	for i, op := range ops {
		j := snapshot.JournalOp{U: op.U, V: op.V, Name: op.Name, Keywords: op.Keywords}
		switch op.Op {
		case api.OpAddEdge:
			j.Kind = snapshot.JournalAddEdge
		case api.OpRemoveEdge:
			j.Kind = snapshot.JournalRemoveEdge
		case api.OpAddVertex:
			j.Kind = snapshot.JournalAddVertex
		}
		out[i] = j
	}
	return out
}

// FromJournalOps maps journal ops back to API mutations.
func FromJournalOps(ops []snapshot.JournalOp) []api.Mutation {
	out := make([]api.Mutation, len(ops))
	for i, j := range ops {
		op := api.Mutation{U: j.U, V: j.V, Name: j.Name, Keywords: j.Keywords}
		switch j.Kind {
		case snapshot.JournalAddEdge:
			op.Op = api.OpAddEdge
		case snapshot.JournalRemoveEdge:
			op.Op = api.OpRemoveEdge
		case snapshot.JournalAddVertex:
			op.Op = api.OpAddVertex
		}
		out[i] = op
	}
	return out
}
