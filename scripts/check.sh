#!/usr/bin/env bash
# Local equivalent of the CI gate: lint + tests + parallel-runtime smoke.
# Usage: scripts/check.sh [--fast]   (--fast skips the smoke run)
set -euo pipefail

cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "== lint =="
if command -v ruff >/dev/null 2>&1; then
    ruff check src tests benchmarks examples scripts
    # blocking, mirroring CI (the staged warn-only rollout is over)
    ruff format --check src tests benchmarks examples scripts
else
    echo "ruff not installed; skipping lint + format check (CI will run them)"
fi

echo "== tests =="
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -x -q

# cli ARGS... runs the mbs-repro CLI of this checkout.  Started with `&`
# it runs in a subshell, which execs python so that $! is the CLI's own
# PID and the kill / kill -9 below reach the server, not a wrapper.
cli() {
    local path=src${PYTHONPATH:+:$PYTHONPATH}
    if [[ $BASHPID != "$$" ]]; then
        PYTHONPATH=$path exec python -m repro.experiments.runner "$@"
    fi
    PYTHONPATH=$path python -m repro.experiments.runner "$@"
}

if [[ $fast -eq 0 ]]; then
    echo "== smoke: mbs-repro all --jobs 2 (fresh cache) =="
    smoke_dir=$(mktemp -d)
    trap 'rm -rf "$smoke_dir"' EXIT
    cli all --jobs 2 --summary \
        --cache-dir "$smoke_dir/cache" --out "$smoke_dir/manifests"
    echo "== smoke: replay + diff (--render-from-cache) =="
    cli all --render-from-cache --summary \
        --cache-dir "$smoke_dir/cache" --out "$smoke_dir/manifests"

    # wait_coord LOG PID -> echoes the coordinator URL once it listens
    wait_coord() {
        local log="$1" pid="$2" url=""
        for _ in $(seq 1 100); do
            url=$(sed -n 's|.*listening on \(http://[^ ]*\).*|\1|p' \
                "$log" | head -n1)
            [[ -n "$url" ]] && { echo "$url"; return 0; }
            kill -0 "$pid" 2>/dev/null || break
            sleep 0.2
        done
        echo "coordinator did not start:" >&2; cat "$log" >&2; return 1
    }

    echo "== smoke: queued sweep (coordinator + 2 workers + merge --check) =="
    serve_log="$smoke_dir/serve.log"
    cli serve --port 0 \
        --cache-dir "$smoke_dir/queue-cache" >"$serve_log" 2>&1 &
    serve_pid=$!
    trap 'kill "$serve_pid" 2>/dev/null || true; rm -rf "$smoke_dir"' EXIT
    coord=$(wait_coord "$serve_log" "$serve_pid")
    cli submit-sweep fig3 --quick \
        --coordinator "$coord"
    cli work --coordinator "$coord" \
        --cache-dir "$smoke_dir/worker-a-cache" &
    worker_pid=$!
    cli work --coordinator "$coord" \
        --cache-dir "$smoke_dir/worker-b-cache"
    wait "$worker_pid"
    cli submit-sweep fig3 --quick \
        --coordinator "$coord" --wait --out "$smoke_dir/queue-manifests"
    cli sweep fig3 --quick \
        --cache-dir "$smoke_dir/ref-cache" --out "$smoke_dir/ref-manifests"
    cli merge "$smoke_dir/queue-manifests" \
        --out "$smoke_dir/merged" --check "$smoke_dir/ref-manifests"
    kill "$serve_pid" 2>/dev/null || true

    echo "== smoke: coordinator restart (--state-dir journal replay) =="
    # half-drain a job, SIGKILL the coordinator, restart it on the same
    # state dir, finish the drain, and re-check byte-identity
    state_dir="$smoke_dir/state"
    serve2_log="$smoke_dir/serve2.log"
    cli serve --port 0 \
        --state-dir "$state_dir" \
        --cache-dir "$smoke_dir/restart-cache" >"$serve2_log" 2>&1 &
    serve2_pid=$!
    trap 'kill "$serve_pid" "$serve2_pid" 2>/dev/null || true; \
        rm -rf "$smoke_dir"' EXIT
    coord2=$(wait_coord "$serve2_log" "$serve2_pid")
    cli submit-sweep fig3 --quick \
        --coordinator "$coord2"
    cli work --coordinator "$coord2" \
        --max-leases 1 --batch 2 \
        --cache-dir "$smoke_dir/worker-c-cache"
    kill -9 "$serve2_pid" 2>/dev/null || true
    wait "$serve2_pid" 2>/dev/null || true
    serve3_log="$smoke_dir/serve3.log"
    cli serve --port 0 \
        --state-dir "$state_dir" \
        --cache-dir "$smoke_dir/restart-cache" >"$serve3_log" 2>&1 &
    serve3_pid=$!
    trap 'kill "$serve_pid" "$serve2_pid" "$serve3_pid" 2>/dev/null \
        || true; rm -rf "$smoke_dir"' EXIT
    coord3=$(wait_coord "$serve3_log" "$serve3_pid")
    grep -q "restored 1 job(s)" "$serve3_log" || {
        echo "restarted coordinator did not restore the job:";
        cat "$serve3_log"; exit 1; }
    cli work --coordinator "$coord3" \
        --cache-dir "$smoke_dir/worker-d-cache"
    cli submit-sweep fig3 --quick \
        --coordinator "$coord3" --wait --out "$smoke_dir/restart-manifests"
    cli merge \
        "$smoke_dir/restart-manifests" --out "$smoke_dir/restart-merged" \
        --check "$smoke_dir/ref-manifests"
    kill "$serve3_pid" 2>/dev/null || true
fi

echo "== all checks passed =="
