.PHONY: all build test bench demo-smoke examples-smoke replay-smoke trace-smoke golden bench-output lint fmt check clean

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

# the channel-backed data path exercised through the demo binary, the
# whole-system KV workload on top of it, and the exporters: the /stats
# rows, the metrics text and the span tree; the last two step a 2-CPU
# kernel
demo-smoke:
	dune exec bin/paramecium_demo.exe -- packets --net-chan -n 10
	dune exec bin/paramecium_demo.exe -- kv -n 4
	dune exec bin/paramecium_demo.exe -- packets --stats --trace -n 3
	dune exec bin/paramecium_demo.exe -- packets --stats --net-chan -n 3
	dune exec bin/paramecium_demo.exe -- kv -n 4 --cpus 2
	dune exec bin/paramecium_demo.exe -- packets --stats --net-chan -n 3 --cpus 2

# every example end to end; each fails on a wrong result, pagersim on
# data lost across paging and fileserver on any file-system error, both
# on the kernel's paging disk
examples-smoke:
	dune exec examples/quickstart.exe
	dune exec examples/netmon.exe
	dune exec examples/parallel.exe
	dune exec examples/appos.exe
	dune exec examples/rpc_demo.exe
	dune exec examples/cluster_rpc.exe
	dune exec examples/pagersim.exe
	dune exec examples/fileserver.exe
	dune exec examples/packet_filter.exe

# record/replay determinism: every scenario self-checks, and the
# committed compose recording replays byte-identically from disk
replay-smoke:
	dune exec bin/pm_replay.exe -- --list
	dune exec bin/pm_replay.exe -- packets --lint --quiet
	dune exec bin/pm_replay.exe -- crash --lint --quiet
	dune exec bin/pm_replay.exe -- deadlock --lint --quiet
	dune exec bin/pm_replay.exe -- kv --lint --quiet
	dune exec bin/pm_replay.exe -- compose --lint --quiet
	dune exec bin/pm_replay.exe -- --replay golden/compose.rec --quiet

# causal tracing end to end: the committed KV recording made with
# tracing on replays, and the offline query tool must produce a
# per-layer cycle breakdown and answer a state-at-cycle question from it
trace-smoke:
	dune exec bin/pm_replay.exe -- --replay golden/kv-trace.rec --quiet
	dune exec bin/pm_query.exe -- golden/kv-trace.rec --layers | grep cyc
	dune exec bin/pm_query.exe -- golden/kv-trace.rec --slowest 3 | grep rid
	dune exec bin/pm_query.exe -- golden/kv-trace.rec --bound /store/log0 --at 999999999 | grep bound

# regenerate the committed golden corpus: a recording of every replay
# scenario, the KV scenario recorded with tracing on, and the stdout of
# the demo and example smokes. All of it is deterministic, so CI diffs
# the regenerated files against the committed ones.
golden:
	for s in packets crash deadlock kv compose; do \
		dune exec bin/pm_replay.exe -- $$s --record golden/$$s.rec --quiet || exit 1; \
	done
	dune exec bin/pm_replay.exe -- kv --trace --record golden/kv-trace.rec --quiet
	$(MAKE) -s --no-print-directory demo-smoke > golden/demo-smoke.txt
	$(MAKE) -s --no-print-directory examples-smoke > golden/examples-smoke.txt

# composition lint: the demo system must lint clean, and the linter must
# catch each seeded violation (non-zero exit inverted with !)
lint:
	dune build @all
	dune exec bin/pm_lint.exe
	! dune exec bin/pm_lint.exe -- --seed non-superset --quiet
	! dune exec bin/pm_lint.exe -- --seed spsc --quiet
	! dune exec bin/pm_lint.exe -- --seed store-order --quiet
	! dune exec bin/pm_lint.exe -- --seed store-dangling --quiet
	dune exec bin/pm_lint.exe -- --seed spsc --json | grep -q '"rule":"spsc"'

# regenerate the committed reference run (simulated cycles, deterministic)
bench-output:
	dune exec bench/main.exe > bench_output.txt

# ocamlformat is optional in minimal toolchains; skip gracefully when absent
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt; \
	else \
		echo "fmt: ocamlformat not installed, skipping"; \
	fi

check: fmt build test

clean:
	dune clean
