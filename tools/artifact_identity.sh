#!/bin/sh
# Byte-identity check for refactors that must not change results.
#
# Usage: tools/artifact_identity.sh PARENT_CHECKOUT CHANGE_CHECKOUT
#
# Runs the same ten CLI invocations in each checkout, with one BLAS thread
# and that checkout's src on PYTHONPATH, each into its own --out directory,
# then compares the two output trees file by file with cmp (the
# *_checkpoints/ directories included) and the two stdout logs, each side's
# --out paths replaced by OUT. For each differing *.report.json it also
# prints every differing key with its largest absolute and relative change
# (tools/report_diff.py). Prints the number of files compared and the net
# change in src/ lines (*.py) from PARENT to CHANGE, and exits 1 on any
# differing or missing file or differing stdout.
set -euf

if [ "$#" -ne 2 ]; then
    echo "usage: $0 PARENT_CHECKOUT CHANGE_CHECKOUT" >&2
    exit 2
fi

# One invocation per line; the last is the modulation_dense benchmark call
# (seed 0).
INVOCATIONS='verify
verify --set seed=7
spectrum
spectrum --set spectrum.phase_sweep=true
spectrum --set spectrum.phase_sweep=true --set spectrum.phase_samples=3 --set spectrum.n_points=1024
evolve
stability
stability --set integrator.t_end=5.0
evolve --set evolve.initial=soliton --set integrator.t_end=0.05
stability --set seed=20406 --set integrator.monitor_stride=8 --set stability.perturbation=random_band --set stability.eta_sweep=[0.01,0.001]'

tools=$(cd "$(dirname "$0")" && pwd)
parent_src=$(cd "$1/src" && pwd)
change_src=$(cd "$2/src" && pwd)
work=$(mktemp -d)
cd "$work"

run_all() {  # run_all SRC NAME: outputs go to NAME/<n>/, stdout to NAME.log
    n=0
    echo "$INVOCATIONS" | while read -r args; do
        n=$((n + 1))
        mkdir -p "$2/$n"
        # $args is split into words on purpose; globbing is off (set -f)
        OPENBLAS_NUM_THREADS=1 PYTHONPATH="$1" \
            python3 -m breatherlab.cli $args --out "$2/$n" >> "$2.log" \
            || { echo "$2: exit $? from: $args" >&2; exit 1; }
    done
}

run_all "$parent_src" parent
run_all "$change_src" change

status=0
count=0
for f in $( (cd parent && find . -type f; cd ../change && find . -type f) | sort -u); do
    count=$((count + 1))
    if [ ! -f "parent/$f" ] || [ ! -f "change/$f" ]; then
        echo "missing: $f" >&2
        status=1
    elif ! cmp -s "parent/$f" "change/$f"; then
        echo "differs: $f" >&2
        case "$f" in
            *.report.json) python3 "$tools/report_diff.py" "parent/$f" "change/$f" | sed 's/^/    /' >&2 ;;
        esac
        status=1
    fi
done

# the PASS/FAIL lines and the report/manifest names must match too
sed "s#: parent/#: OUT/#" parent.log > parent.stdout
sed "s#: change/#: OUT/#" change.log > change.stdout
if ! cmp -s parent.stdout change.stdout; then
    echo "differs: stdout (parent.stdout, change.stdout)" >&2
    status=1
fi

src_lines() {  # src_lines DIR: lines of the *.py files under DIR
    find "$1" -name '*.py' -type f -exec cat {} + | wc -l
}
before=$(src_lines "$parent_src")
after=$(src_lines "$change_src")
printf 'src lines: %d -> %d (net %+d)\n' "$before" "$after" "$((after - before))"

if [ "$status" -eq 0 ]; then
    echo "all $count files identical, stdout identical"
    rm -rf "$work"
else
    echo "$count files compared; outputs kept in $work" >&2
fi
exit "$status"
