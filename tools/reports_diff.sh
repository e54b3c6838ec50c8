#!/bin/sh
# Byte-identical-reports check: render every runner section on a reference
# tree and on this tree, in the same environment, and diff the reports.
#
#   tools/reports_diff.sh <rev|directory> <quick|full>...
#
# A revision is checked out into a scratch `git worktree` (removed on exit);
# a directory is used as the reference tree as it is.
set -eu
ref=$1
shift
scratch=$(mktemp -d)
tree=$ref
cleanup() {
    [ "$tree" = "$ref" ] || git worktree remove --force "$tree" 2>/dev/null || true
    rm -rf "$scratch"
}
trap cleanup EXIT
if [ ! -d "$ref" ]; then
    tree=$scratch/ref
    git worktree add --quiet --detach "$tree" "$ref"
fi
status=0
for form in "$@"; do
    flag=$([ "$form" = quick ] && echo --quick || true)
    for side in ref head; do
        src=$([ "$side" = ref ] && echo "$tree/src" || echo "$PWD/src")
        PYTHONPATH=$src python -m repro.experiments.runner $flag --jobs 1 \
            --output "$scratch/$form.$side.txt" > /dev/null 2>&1
    done
    if diff "$scratch/$form.ref.txt" "$scratch/$form.head.txt"; then
        echo "reports-diff: $form report byte-identical to $ref"
    else
        status=1
    fi
done
exit $status
