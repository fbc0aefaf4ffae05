module cexplorer/cmd/bench

go 1.24

require cexplorer v0.0.0

replace cexplorer => ../..
