#!/bin/sh
# Byte-identity check for refactors that must not change results.
#
# Usage: tools/artifact_identity.sh PARENT_CHECKOUT CHANGE_CHECKOUT
#
# Runs the same twenty-four CLI invocations in each checkout, with one BLAS thread
# and that checkout's src on PYTHONPATH, each into its own --out directory.
# An invocation may set only config keys that both checkouts accept: a side
# that refuses one exits 1, and the check stops there.
# Each side's 12-hex config hash is then replaced by HASH in file names, in
# the JSON and CSV files and in stdout, so a change to the config defaults still
# compares like with like. The two output trees are compared file by file
# with cmp (the *_checkpoints/ directories included), and the two stdout
# logs with each side's --out paths replaced by OUT. Manifests are compared
# with their config block set aside: the config keys that differ are listed
# but are not a difference. For each differing *.report.json or manifest it
# prints every differing key with its largest absolute and relative change
# (tools/report_diff.py). Prints the number of files compared and the net
# change in src/ lines (*.py) from PARENT to CHANGE, and exits 1 on any
# differing or missing result file or differing stdout.
set -euf

if [ "$#" -ne 2 ]; then
    echo "usage: $0 PARENT_CHECKOUT CHANGE_CHECKOUT" >&2
    exit 2
fi

# One invocation per line; the last is the modulation_dense benchmark call
# (seed 0). The two phase sweeps run the CLI's fixed 8 samples, at the
# default N = 512 and at N = 1024. The grid rule is 30/beta for every beta
# and the step rule takes m = ceil(max(beta, 0.3 alpha)^3) steps per dt: the
# two at beta = 0.5 cover a box wider than the default, the two at beta = 2 a
# narrower one, and the stability run there m = 8; every other one runs at
# beta = 1. The two at alpha = 3 are the largest alpha at beta = 1 that keeps
# m = 1, where a rule that ignored alpha and one that weighs it agree. The
# evolve at alpha = 6 (m = 6, h*alpha = 0.352) sits just under evolve's own
# resolution bound, 0.36, on the default grid. The spectrum at N = 1024 and
# alpha = 8 is the largest alpha there that the Wronskian check's bound on its
# residual grid admits (h*alpha = 0.344 against 0.38). The verify at N = 512
# and alpha = 3 (h*alpha = 0.352) and the stability at N = 1024 and alpha = 5.5
# (0.322) sit just under verify's quadrature bound, 0.38, and stability's, 0.337.
# The three at x1 = 0.4 cover the breather's one phase key; the spectrum one is the only invocation whose
# Wronskian root is not at 0 (about 1e-16 at x1 = 0), so it alone checks a
# generic root of the scalar root finder. The run at eta = 0 covers the
# report's null a0_observed and a pairing constant of 0.
INVOCATIONS='verify
verify --set seed=7
verify --set alpha=2 --set beta=0.5
verify --set x1=0.4
spectrum
spectrum --set spectrum.phase_sweep=true
spectrum --set spectrum.phase_sweep=true --set spectrum.n_points=1024
spectrum --set alpha=2 --set beta=0.5
spectrum --set x1=0.4
evolve
stability
stability --set integrator.t_end=5.0
stability --set x1=0.4 --set integrator.t_end=0.05
evolve --set evolve.initial=soliton --set integrator.t_end=0.05
stability --set stability.eta_sweep=[0.01,0] --set integrator.t_end=0.05
spectrum --set alpha=1 --set beta=2
stability --set beta=2 --set integrator.t_end=0.05
evolve --set alpha=3
evolve --set alpha=6
stability --set alpha=3 --set integrator.t_end=0.05
spectrum --set spectrum.n_points=1024 --set alpha=8
verify --set grid.n_points=512 --set alpha=3
stability --set stability.n_points=1024 --set alpha=5.5 --set integrator.t_end=0.05
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

# the config hash: in <command>_<hash>, the prefix of every name the CLI
# writes, and as the value of a report's "config_hash" key
unhash_sed='s/(verify|spectrum|evolve|stability)_[0-9a-f]{12}/\1_HASH/g
s/"config_hash": "[0-9a-f]{12}"/"config_hash": "HASH"/g'

unhash() {  # unhash DIR: the config hash becomes HASH in names and text files
    find "$1" -depth -mindepth 1 | while read -r path; do
        case "$path" in
            *.json|*.csv) sed -E -i "$unhash_sed" "$path" ;;
        esac
        name=$(basename "$path")
        new=$(echo "$name" | sed -E "$unhash_sed")
        [ "$name" = "$new" ] || mv "$path" "$(dirname "$path")/$new"
    done
}

# exits 0 when two JSON documents are equal once their "config" entries are
# removed; ints and floats stay apart, as they do in the bytes
same_without_config='import json, sys
a, b = (json.load(open(path)) for path in sys.argv[1:])
a.pop("config", None)
b.pop("config", None)
sys.exit(json.dumps(a) != json.dumps(b))'

run_all "$parent_src" parent
run_all "$change_src" change
unhash parent
unhash change

status=0
count=0
for f in $( (cd parent && find . -type f; cd ../change && find . -type f) | sort -u); do
    count=$((count + 1))
    if [ ! -f "parent/$f" ] || [ ! -f "change/$f" ]; then
        echo "missing: $f" >&2
        status=1
    elif ! cmp -s "parent/$f" "change/$f"; then
        case "$f" in
            *.manifest.json)
                python3 "$tools/report_diff.py" "parent/$f" "change/$f" \
                    | { grep '^config\.' || true; } >> config.diff
                python3 -c "$same_without_config" "parent/$f" "change/$f" && continue ;;
        esac
        echo "differs: $f" >&2
        case "$f" in
            *.json) python3 "$tools/report_diff.py" "parent/$f" "change/$f" | sed 's/^/    /' >&2 ;;
        esac
        status=1
    fi
done
if [ -s config.diff ]; then
    echo "config keys that differ (set aside in the manifests):"
    sort -u config.diff | sed 's/^/    /'
    config_note=" apart from the manifests' config blocks"
fi

# the PASS/FAIL lines and the report/manifest names must match too
sed -E "s#: parent/#: OUT/#; $unhash_sed" parent.log > parent.stdout
sed -E "s#: change/#: OUT/#; $unhash_sed" change.log > change.stdout
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
    echo "all $count files identical${config_note:-}, stdout identical"
    rm -rf "$work"
else
    echo "$count files compared; outputs kept in $work" >&2
fi
exit "$status"
