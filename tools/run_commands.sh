#!/bin/sh
# Run fixed CLI commands, one a line on stdin, on one source tree.
#
# usage: tools/run_commands.sh SRC_TREE OUT_DIR < COMMANDS
#
# Each line is a subcommand and its overrides.  Command n (the n-th line)
# runs as `python3 -m squeezebath` from SRC_TREE with PYTHONPATH=src, writes
# its files into OUT_DIR/n/ and its stdout, stderr and exit code into
# OUT_DIR/n.stdout, n.stderr and n.exit, with the path OUT_DIR/n written as
# <out>.  So a change that moves no output bit gives the same OUT_DIR on its
# tree as on its parent's.  tools/pr3_line.sh and tools/edge_line.sh feed it
# their commands.
#
# Each command runs with PYTHONDONTWRITEBYTECODE=1, so SRC_TREE gains no
# __pycache__: a later perfbench/run.py from that tree would otherwise
# import warm bytecode and report a smaller setup_s than a fresh checkout.
set -u
if [ $# -ne 2 ]; then
    echo "usage: $0 SRC_TREE OUT_DIR < COMMANDS" >&2
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
    (cd "$tree" && PYTHONDONTWRITEBYTECODE=1 PYTHONPATH=src python3 -m squeezebath $command --out "$out/$n" \
        </dev/null >"$out/$n.stdout" 2>"$out/$n.stderr")
    echo $? >"$out/$n.exit"
    for stream in stdout stderr; do
        sed "s|$out/$n|<out>|g" "$out/$n.$stream" >"$out/$n.tmp" && mv "$out/$n.tmp" "$out/$n.$stream"
    done
done
