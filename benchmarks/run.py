#!/usr/bin/env python3
"""Benchmark for wspolicy: four closed-loop workloads from one process.

    python3 benchmarks/run.py --workload generate --seed 1 --seconds 25 --trace 0

Workloads: generate, match-registry, match-wide, cli (see benchmarks/README.md).
One client runs one op at a time; the cli workload has at most one child
process alive at a time.  Each run makes whole passes over a fixed seeded
input set until ``--seconds`` have passed and at least MIN_OPS ops are done,
checks every op's output, and prints one JSON object as its last stdout line.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` the
per-layer metrics, from spans and counters recorded around wspolicy's
functions (benchmarks/spans.py): the pairwise checks are counted in the first,
unmeasured pass and the spans are timed in the measured passes.

The program is imported from ``src/`` next to this directory and nowhere
else; without it the run exits 2 before printing a result.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
GOLDEN = ROOT / "tests" / "golden"
FIXTURE = ROOT / "tests" / "fixtures" / "travel_agency.json"

MIN_OPS = 100          # so latency_p90_ms has at least ten samples beyond it
SETUP_CHILDREN = 4     # set-ups taken during the run, besides the run's own
LOOP_CAP_S = 120.0     # hard stop, so a slow machine still ends the run in time
IMPORT_SAMPLES = 7     # per side, for cli.import_ms

sys.path[:0] = [str(SRC), str(BENCH_DIR)]
import inputs  # noqa: E402
import spans   # noqa: E402

E2E_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
LAYER_UNITS = {
    "modelfile.parse_model_ms": "ms",
    "model.validate_model_ms": "ms",
    "emit.emit_wsdl_ms": "ms",
    "xmltree.write_canonical_ms": "ms",
    "xmltree.bytes_written": "B",
    "reader.parse_wsdl_ms": "ms",
    "xmltree.parse_xml_ms": "ms",
    "reader.parse_policy_ms": "ms",
    "algebra.normalize_ms": "ms",
    "algebra.alternatives": "count",
    "algebra.intersect_ms": "ms",
    "algebra.pair_checks": "count",
    "algebra.instance_checks": "count",
    "algebra.pair_hit_ratio": "ratio",
    "names.normalize_uri_calls": "count",
    "names.normalize_uri_ms": "ms",
    "cli.import_ms": "ms",
}


class CheckFailed(Exception):
    """An output differs from what the inputs say it must be."""


def require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_wspolicy():
    """Import the program from src/ only; never an installed copy."""
    import wspolicy
    origin = Path(wspolicy.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"wspolicy imported from {origin}, not from {SRC}")
    return wspolicy


def nf_key(nf) -> frozenset:
    """A wspolicy NormalForm in the generator's alternative-set form."""
    return frozenset(
        frozenset(
            (i.qname.namespace, i.qname.local, i.parameters,
             nf_key(i.nested) if i.nested is not None else None)
            for i in alt
        )
        for alt in nf.alternatives
    )


# --- workloads ------------------------------------------------------------------
#
# Each workload has: make_inputs(seed) (not timed), setup(tracer) (imports the
# program and prepares; part of setup_s), op(i) (one timed op over input i),
# check_first(i, out) (full check of input i's first output) and check(i, out)
# (cheap per-op check against the fully checked first output).

class Generate:
    name = "generate"

    def make_inputs(self, seed):
        self.cases = inputs.generate_inputs(seed)
        self.size = len(self.cases)

    def setup(self, tracer):
        import_wspolicy()
        from wspolicy import algebra, emit, model, modelfile, reader, xmltree
        self.algebra, self.emit, self.model = algebra, emit, model
        self.modelfile, self.reader, self.xmltree = modelfile, reader, xmltree
        if tracer is not None:
            spans.install(tracer)

    def op(self, i):
        parsed = self.modelfile.parse_model(self.cases[i].data)
        errors = [d for d in self.model.validate_model(parsed) if d.severity == "error"]
        if errors:
            raise RuntimeError(f"validate_model: {errors[0]}")
        return [(name, self.xmltree.write_canonical(doc)) for name, doc in self.emit.emit_wsdl(parsed)]

    def check_first(self, i, out):
        case = self.cases[i]
        files = dict(out)
        require(len(files) == len(out), "duplicate file names")
        require(set(files) == {case.wsdl_name} | set(case.xsd_refs), f"file set {sorted(files)}")
        trees = {name: ET.fromstring(data) for name, data in files.items()}
        wsdl = trees[case.wsdl_name]
        w = "{%s}" % inputs.WSDL_NS
        wsp_policy = "{%s}Policy" % inputs.WSP_NS
        interfaces = wsdl.findall(f"{w}interface")
        services = wsdl.findall(f"{w}service")
        require({e.get("name") for e in interfaces} == case.interfaces
                and len(interfaces) == len(case.interfaces), "interfaces differ")
        require({e.get("name") for e in wsdl.findall(f"{w}binding")} == case.bindings, "bindings differ")
        require({e.get("name") for e in services} == case.services, "services differ")
        endpoints = {(s.get("name"), e.get("name")) for s in services for e in s.findall(f"{w}endpoint")}
        require(endpoints == case.endpoints, "endpoints differ")

        # Exactly one wsp:Policy child at each attached subject, none elsewhere.
        subjects = []
        for iface in interfaces:
            subjects.append((("interface", (iface.get("name"),)), iface))
            for op in iface.findall(f"{w}operation"):
                subjects.append((("operation", (iface.get("name"), op.get("name"))), op))
        subjects += [(("binding", (b.get("name"),)), b) for b in wsdl.findall(f"{w}binding")]
        for s in services:
            subjects.append((("service", (s.get("name"),)), s))
            subjects += [(("endpoint", (s.get("name"), e.get("name"))), e) for e in s.findall(f"{w}endpoint")]
        for subject, element in subjects:
            want = 1 if subject in case.subjects else 0
            require(len(element.findall(wsp_policy)) == want, f"policy count at {subject}")
        require(len(wsdl.findall(f".//{w}*/{wsp_policy}")) == len(case.subjects), "stray policies")

        # Each XSD carries every assertion's modelReference URIs.
        sawsdl_ref = "{%s}modelReference" % inputs.SAWSDL_NS
        for xsd_name, refs in case.xsd_refs.items():
            root = trees[xsd_name]
            require(root.get("targetNamespace") == case.domain_namespaces[xsd_name], "xsd namespace")
            found = {e.get("name"): (e.get(sawsdl_ref) or "").split()
                     for e in root.findall("{%s}element" % inputs.XS_NS)}
            require(found == refs, f"modelReference URIs differ in {xsd_name}")

        # Reading the files back and normalizing gives each policy's normal form.
        schemas = [files[name] for name in sorted(case.xsd_refs)]
        parsed = self.reader.parse_wsdl(files[case.wsdl_name], schemas)
        got = {(a.subject.kind, a.subject.path): nf_key(self.algebra.normalize(a.policy))
               for a in parsed.attachments}
        require(got == case.subjects, "round-tripped normal forms differ")

    def check(self, i, out):
        require(out == self.reference[i], "emitted bytes differ from the first emission")


class MatchRegistry:
    name = "match-registry"

    def make_inputs(self, seed):
        self.data = inputs.registry_inputs(seed)
        self.size = len(self.data.queries)

    def setup(self, tracer):
        import_wspolicy()
        from wspolicy import algebra, reader
        from wspolicy.names import QName
        self.algebra, self.reader = algebra, reader
        if tracer is not None:
            spans.install(tracer)
            tracer.phase = "setup"
        entries = []
        vocab = {}
        domains = [reader.parse_domain_xsd(self.data.alias_xsd)]
        for k, provider in enumerate(self.data.providers):
            parsed = reader.parse_wsdl(provider.wsdl, [provider.xsd])
            domains += parsed.domains
            for attachment in parsed.attachments:
                entries.append((k, attachment.subject.path_string(), algebra.normalize(attachment.policy)))
        for domain in domains:
            for decl in domain.assertions:
                vocab[QName(domain.target_namespace, decl.name)] = decl
        if tracer is not None:
            tracer.phase = None
        self.entries, self.vocab = entries, vocab

    def op(self, i):
        algebra = self.algebra
        query = algebra.normalize(self.reader.parse_policy_element(self.data.queries[i].policy))
        semantic = algebra.MatchMode.SEMANTIC
        return {(k, subject) for k, subject, provider in self.entries
                if algebra.intersect(provider, query, semantic, self.vocab).satisfiable}

    def check_first(self, i, out):
        loaded = {(k, s) for k, s, _ in self.entries}
        want_loaded = {(k, s) for k, p in enumerate(self.data.providers) for s in p.concepts}
        require(loaded == want_loaded and len(self.entries) == len(loaded), "registry load differs")
        expected = inputs.expected_matches(self.data, self.data.queries[i])
        require(len(expected) == inputs.REG_PLANTED_PER_QUERY, "planted matches miscounted")
        require(out == expected, f"query {i}: {len(out)} matches, expected {len(expected)}")

    def check(self, i, out):
        require(out == self.reference[i], f"query {i} matches changed")


class MatchWide:
    name = "match-wide"

    def make_inputs(self, seed):
        self.pairs = inputs.wide_inputs(seed)
        self.size = len(self.pairs)

    def setup(self, tracer):
        import_wspolicy()
        from wspolicy import algebra, reader
        self.algebra, self.reader = algebra, reader
        if tracer is not None:
            spans.install(tracer)

    def op(self, i):
        pair = self.pairs[i]
        normalize, parse = self.algebra.normalize, self.reader.parse_policy_element
        provider = normalize(parse(pair.provider))
        requester = normalize(parse(pair.requester))
        common = self.algebra.intersect(provider, requester, self.algebra.MatchMode.STRICT)
        return len(provider.alternatives), len(requester.alternatives), common

    def check_first(self, i, out):
        n_provider, n_requester, common = out
        require(n_provider == inputs.WIDE_PROVIDER_ALTS, f"provider has {n_provider} alternatives")
        require(n_requester == inputs.WIDE_REQUESTER_ALTS, f"requester has {n_requester} alternatives")
        require(len(common.alternatives) == inputs.WIDE_SHARED_ALTS, "shared alternative count")
        require(nf_key(common) == self.pairs[i].shared, "intersection differs from the shared alternatives")

    def check(self, i, out):
        require(out == self.reference[i], f"pair {i} result changed")


class Cli:
    name = "cli"
    work = None

    def make_inputs(self, seed):
        self.data = inputs.cli_inputs(seed)
        self.size = len(self.data.rotation)
        for path in (FIXTURE, GOLDEN / "TravelAgency.wsdl", GOLDEN / "ws-semanticsecuritypolicy.xsd"):
            if not path.is_file():
                raise FileNotFoundError(f"missing {path}")
        self.golden = {p.name: p.read_bytes() for p in GOLDEN.iterdir() if p.is_file()}
        RESULTS.mkdir(parents=True, exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="cli-", dir=RESULTS))
        (self.work / "requester.xml").write_bytes(self.data.requester)
        (self.work / "acme-security.xsd").write_bytes(self.data.vocab)
        self.tracer = None
        self.setups = 0

    def close(self):
        if self.work is not None:
            shutil.rmtree(self.work, ignore_errors=True)

    def setup(self, tracer):
        # The intersect op reads a WSDL that the program generates here.
        self.tracer = tracer
        self.setups += 1
        base = self.work / f"base{self.setups}"
        result = self.run_cli(["generate", str(FIXTURE), "--output-dir", str(base)])
        require(result.returncode == 0, f"set-up generate exited {result.returncode}: {result.stderr}")
        self.base = base

    def args(self, command):
        if command == "generate":
            return ["generate", str(FIXTURE), "--output-dir", str(self.work / "gen")]
        if command == "normalize":
            return ["normalize", f"{FIXTURE}#{inputs.CLI_FRAGMENT}"]
        return ["intersect", str(self.base / "TravelAgency.wsdl"), str(self.work / "requester.xml"),
                "--mode", "semantic", "--vocab", str(self.work / "acme-security.xsd")]

    def run_cli(self, args, phase=None):
        if phase is not None:
            out = self.work / "spans.json"
            cmd = [sys.executable, str(BENCH_DIR / "spans.py"), str(out), phase, "--"] + args
        else:
            cmd = [sys.executable, "-m", "wspolicy.cli"] + args
        result = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60)
        if phase is not None:
            recorded = json.loads(out.read_text())
            self.tracer.ingest(recorded["spans"], recorded["counters"])
        return result

    def op(self, i):
        command = self.data.rotation[i]
        phase = self.tracer.phase if self.tracer is not None else None
        result = self.run_cli(self.args(command), phase)
        if result.returncode != 0:
            raise RuntimeError(f"{command} exited {result.returncode}: {result.stderr.strip()[-200:]}")
        return command, result.stdout

    def check_first(self, i, out):
        self.check(i, out)

    def check(self, i, out):
        command, stdout = out
        lines = stdout.splitlines()
        if command == "generate":
            gen = self.work / "gen"
            names = sorted(self.golden)
            require(lines == [str(gen / n) for n in ["TravelAgency.wsdl", "ws-semanticsecuritypolicy.xsd"]],
                    f"generate stdout {lines}")
            for name in names:
                require((gen / name).read_bytes() == self.golden[name], f"{name} differs from tests/golden")
        elif command == "normalize":
            require(lines == self.data.normalize_lines, f"normalize stdout {lines}")
        else:
            require(lines == self.data.intersect_lines, f"intersect stdout {lines}")


WORKLOADS = {w.name: w for w in (Generate, MatchRegistry, MatchWide, Cli)}


# --- measurement ------------------------------------------------------------------

def timed_setup(workload, tracer=None) -> float:
    """Set up and run the first op: the time from start to the first measured op."""
    start = time.perf_counter()
    workload.setup(tracer)
    workload.op(0)
    return time.perf_counter() - start


def setup_sample(workload, args) -> float:
    """One more set-up: in a fresh interpreter for the library workloads, by
    repeating the program's preparation for cli."""
    if isinstance(workload, Cli):
        return timed_setup(workload)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-sample"]
    result = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if result.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {result.stderr.strip()[-300:]}")
    return float(result.stdout.split()[-1])


def import_ms() -> float:
    """Median wall time of `import wspolicy.cli` in a fresh interpreter, minus
    that of a bare interpreter, alternating the two."""
    bare, full = [], []
    for _ in range(IMPORT_SAMPLES):
        for code, bucket in (("pass", bare), ("import wspolicy.cli", full)):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), check=True, timeout=60)
            bucket.append(time.perf_counter() - start)
    return (statistics.median(full) - statistics.median(bare)) * 1000


def reference_pass(workload, tracer):
    """One unmeasured pass that fully checks each input's first output and
    keeps it.  A traced run counts the pairwise checks here, and only here."""
    counting = tracer is not None
    remove_counters = spans.install_counters(tracer) if counting and not isinstance(workload, Cli) else None
    workload.reference = []
    for i in range(workload.size):
        if counting:
            tracer.phase = "count"
        out = workload.op(i)
        if counting:
            tracer.phase = None
        workload.check_first(i, out)
        workload.reference.append(out)
    if remove_counters is not None:
        remove_counters()


def measure(workload, seconds: float, tracer, latencies: list, failures: list, pauses: list) -> float:
    """Closed loop of whole passes, appending each op's latency (s) and each
    failed op's exception; returns the measured time (s).

    ``pauses`` are callables run between passes, spread evenly over the run;
    their time is not measured.  The machine's speed drifts over tens of
    seconds, so set-up samples taken across the run vary less than samples
    taken back to back.
    """
    clock = time.perf_counter
    measured = 0.0
    due = [seconds * (k + 1) / (len(pauses) + 1) for k in range(len(pauses))]
    while True:
        start = clock()
        for i in range(workload.size):
            if tracer is not None:
                tracer.phase = "op"
            t0 = clock()
            try:
                out = workload.op(i)
            except Exception as exc:  # a failed op is counted, not fatal
                out = exc
            latencies.append(clock() - t0)
            if tracer is not None:
                tracer.phase = None
            if isinstance(out, Exception):
                failures.append(out)
                print(f"op {i} failed: {out!r}", file=sys.stderr)
            else:
                workload.check(i, out)
        measured += clock() - start
        while pauses and measured >= due[0]:
            due.pop(0)
            pauses.pop(0)()
        if (measured >= seconds and len(latencies) >= MIN_OPS) or measured >= LOOP_CAP_S:
            for pause in pauses:
                pause()
            return measured


def layer_metrics(workload, tracer, ops: int, extra_import_ms: float) -> dict:
    """Times per measured op; counts per op of the counting pass (one pass
    over the inputs)."""
    times = tracer.self_times()
    counters = tracer.counters

    def per_op_ms(name, phase="op", per=ops):
        return times.get((phase, name), 0.0) * 1000 / per

    def count(name):
        return counters[("count", name)] / workload.size

    # parse_wsdl and parse_xml are reported per registry load where there is one.
    load_phase, loads = ("setup", 1) if isinstance(workload, MatchRegistry) else ("op", ops)
    checks = counters[("count", "algebra.pair_checks")]
    return {
        "modelfile.parse_model_ms": per_op_ms("modelfile.parse_model"),
        "model.validate_model_ms": per_op_ms("model.validate_model"),
        "emit.emit_wsdl_ms": per_op_ms("emit.emit_wsdl"),
        "xmltree.write_canonical_ms": per_op_ms("xmltree.write_canonical"),
        "xmltree.bytes_written": count("xmltree.bytes_written"),
        "reader.parse_wsdl_ms": per_op_ms("reader.parse_wsdl", load_phase, loads),
        "xmltree.parse_xml_ms": per_op_ms("xmltree.parse_xml", load_phase, loads),
        "reader.parse_policy_ms": per_op_ms("reader.parse_policy"),
        "algebra.normalize_ms": per_op_ms("algebra.normalize"),
        "algebra.alternatives": count("algebra.alternatives"),
        "algebra.intersect_ms": per_op_ms("algebra.intersect"),
        "algebra.pair_checks": checks / workload.size,
        "algebra.instance_checks": count("algebra.instance_checks"),
        "algebra.pair_hit_ratio": counters[("count", "algebra.pair_checks_hit")] / checks if checks else 0.0,
        "names.normalize_uri_calls": count("names.normalize_uri_calls"),
        "names.normalize_uri_ms": counters[("op", "names.normalize_uri_s")] * 1000 / ops,
        "cli.import_ms": extra_import_ms,
    }


def run(args) -> int:
    workload = WORKLOADS[args.workload]()
    tracer = spans.Tracer(spans.leaf_overhead()) if args.trace else None
    latencies: list[float] = []
    failures: list[Exception] = []
    try:
        workload.make_inputs(args.seed)
        if args.setup_sample:
            print(f"{timed_setup(workload):.6f}")
            return 0
        first_setup = timed_setup(workload, tracer)
        reference_pass(workload, tracer)
        samples = [first_setup]
        pauses = [] if args.trace else [lambda: samples.append(setup_sample(workload, args))] * SETUP_CHILDREN
        elapsed = measure(workload, args.seconds, tracer, latencies, failures, pauses)
        extra_import = import_ms() if args.trace and isinstance(workload, Cli) else 0.0
    except (ImportError, FileNotFoundError) as exc:
        print(f"the program is not there: {exc}", file=sys.stderr)
        return 2
    except CheckFailed as exc:
        attempted = len(latencies) or workload.size
        print(json.dumps({"correct": False, "attempted": attempted, "failed": len(failures), "metrics": {}}))
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if hasattr(workload, "close"):
            workload.close()

    ops = len(latencies)
    ops_per_s = ops / elapsed
    if args.trace:
        values = layer_metrics(workload, tracer, ops, extra_import)
        units = LAYER_UNITS
        tracer.dump(RESULTS / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        if isinstance(workload, Cli):
            peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "ops_per_s": ops_per_s,
            "latency_p50_ms": statistics.median(latencies) * 1000,
            "latency_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1000,
            "setup_s": statistics.median(samples),
            "peak_rss_mib": peak_kib / 1024,
        }
        units = E2E_UNITS
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {ops} ops in {elapsed:.2f} s "
          f"({ops_per_s:.3f} ops/s), set-up samples {[round(s, 4) for s in samples]}", file=sys.stderr)
    result = {
        "correct": True,
        "attempted": ops,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  ops_per_s=ops_per_s, setup_samples=samples)
    (RESULTS / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", action="store_true",
                        help="internal: print one set-up time and exit")
    args = parser.parse_args()
    if not (SRC / "wspolicy" / "__init__.py").is_file():
        print(f"no program source at {SRC}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
