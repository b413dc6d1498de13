#!/bin/sh
# The byte-identity check: run twelve fixed CLI commands on one source tree.
#
# usage: tools/pr3_line.sh SRC_TREE OUT_DIR
#
# Command n runs as `python3 -m squeezebath` from SRC_TREE with
# PYTHONPATH=src, writes its files into OUT_DIR/n/ and its stdout, stderr and
# exit code into OUT_DIR/n.stdout, n.stderr and n.exit, with the path
# OUT_DIR/n written as <out>.  A change that moves no output bit gives the
# same OUT_DIR on its tree as on its parent's:
#
#   tools/pr3_line.sh PARENT_TREE a && tools/pr3_line.sh . b && diff -r a b
#
# The commands cover the default runs, the thermal mode, strong squeezing
# (commands 6 and 7, exit 0), a coarse step (command 5, exit 2), a step
# wider than the output spacing (command 12, exit 1), dense output and the
# spectrum and steady-state tables.  Every other command exits 0.
set -u
if [ $# -ne 2 ]; then
    echo "usage: $0 SRC_TREE OUT_DIR" >&2
    exit 64
fi
# a tree without the package would fail every command alike on both sides
if [ ! -d "$1/src/squeezebath" ]; then
    echo "$0: $1 has no src/squeezebath: pass the root of a source tree" >&2
    exit 64
fi
tree=$(cd "$1" && pwd) || exit 1
mkdir -p "$2" && out=$(cd "$2" && pwd) || exit 1
n=0
while read -r command; do
    n=$((n + 1))
    rm -rf "${out:?}/$n" && mkdir "$out/$n"
    # $command is left unquoted: it is a subcommand and its overrides
    (cd "$tree" && PYTHONPATH=src python3 -m squeezebath $command --out "$out/$n" \
        </dev/null >"$out/$n.stdout" 2>"$out/$n.stderr")
    echo $? >"$out/$n.exit"
    for stream in stdout stderr; do
        sed "s|$out/$n|<out>|g" "$out/$n.$stream" >"$out/$n.tmp" && mv "$out/$n.tmp" "$out/$n.$stream"
    done
done <<'COMMANDS'
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
