#!/bin/sh
# Run the inputs at the edge of what runs on one source tree.
#
# usage: tools/edge_line.sh SRC_TREE OUT_DIR
#
# tools/run_commands.sh runs them in the layout of tools/pr3_line.sh,
# command n into OUT_DIR/n/ and OUT_DIR/n.stdout, n.stderr and n.exit.  Run
# it on the parent's tree and the change's, and compare the two with diff -r
# or tools/max_change.py, when a change touches the prefix scan, the row
# blocks, a composition law or the step.
#
# Commands 1-13 are `trajectory` at the edges: strong squeezing (1, 2, 5,
# 6), strong coupling and large thermal N (3, 4), long output intervals
# (7-10), many rows (11, 12) and slow time scales (13, and 18 a thousand
# times slower).  Commands 14-17 decay fast, across many intervals (14, 15)
# and inside one (16, 17).  Commands 13 and 18 are the default run with
# every rate divided by 1e3 and 1e6, so their Pauli columns agree with it.
# Command 6 exits 1 (an interval of more substeps than the limit); the
# others exit 0.
# Commands 2 and 12 take seconds each, and 5, 7 and 12 peak at 100-160 MB.
exec sh "$(dirname "$0")/run_commands.sh" "$@" <<'COMMANDS'
trajectory schedule.r.kind=const schedule.r.value=3
trajectory schedule.r.kind=const schedule.r.value=4
trajectory schedule.mode=thermal schedule.nbar=1000
trajectory schedule.gamma.value=100 schedule.r.kind=const schedule.r.value=0
trajectory schedule.r.kind=const schedule.r.value=5.5 grid.t_max=0.1
trajectory schedule.r.kind=const schedule.r.value=6 grid.t_max=0.1
trajectory grid.t_max=1000 grid.dt_out=1000
trajectory grid.t_max=10 grid.dt_out=10
trajectory grid.t_max=2000 grid.dt_out=2000
trajectory grid.t_max=1400 grid.dt_out=1400
trajectory grid.t_max=20 grid.dt_out=0.001
trajectory grid.t_max=200 grid.dt_out=0.001
trajectory schedule.gamma.value=1e-3 schedule.r.c2=1e-4 grid.t_max=30000 grid.dt_out=50
verify schedule.gamma.value=100 schedule.r.kind=const schedule.r.value=0
trajectory schedule.mode=thermal schedule.nbar=300 grid.t_max=5
trajectory schedule.gamma.value=100 schedule.r.kind=const schedule.r.value=0 grid.t_max=20 grid.dt_out=20
trajectory schedule.mode=thermal schedule.nbar=300 grid.t_max=5 grid.dt_out=5
trajectory schedule.gamma.value=1e-6 schedule.r.c2=1e-7 grid.t_max=3e7 grid.dt_out=5e4
COMMANDS
