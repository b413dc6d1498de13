#!/bin/sh
# The byte-identity check: run twelve fixed CLI commands on one source tree.
#
# usage: tools/pr3_line.sh SRC_TREE OUT_DIR
#
# tools/run_commands.sh runs them, command n into OUT_DIR/n/ and
# OUT_DIR/n.stdout, n.stderr and n.exit.  A change that moves no output bit
# gives the same OUT_DIR on its tree as on its parent's:
#
#   tools/pr3_line.sh PARENT_TREE a && tools/pr3_line.sh . b && diff -r a b
#
# The commands cover the default runs, the thermal mode, strong squeezing
# (commands 6 and 7, exit 0), a coarse step (command 5, exit 2), a step
# wider than the output spacing (command 12, exit 1), dense output and the
# spectrum and steady-state tables.  Every other command exits 0.
exec sh "$(dirname "$0")/run_commands.sh" "$@" <<'COMMANDS'
trajectory
figures figures.plot=true
verify
verify schedule.mode=thermal schedule.nbar=0.7
verify grid.dt_int=0.5 grid.dt_out=0.5
verify schedule.r.kind=const schedule.r.value=2
trajectory schedule.r.kind=const schedule.r.value=2
trajectory grid.t_max=10 grid.dt_out=0.001 schedule.theta.value=0.7 initial.mu_phase=0.3
spectrum spectrum.at=3
steady
steady steady.at=2
trajectory grid.dt_int=0.5
COMMANDS
