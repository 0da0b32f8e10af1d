"""Record the golden outputs that run.py checks every run against.

Run from the repository root, at the commit whose outputs are the
reference:

    python3 perfbench/record_golden.py
"""

import json

import run


def main():
    lib = run.load_library()
    run.GOLDEN.mkdir(exist_ok=True)

    code, text = run.SweepWorkload(1).execute(lib)
    if code != 0:
        raise SystemExit(f"verify exited with {code}")
    (run.GOLDEN / "verify_50_56.txt").write_text(text)

    graphs = run.GraphWorkload().execute(lib)
    record = {str(n): run.graph_record(*graphs[n]) for n in run.GRAPH_WEIGHTS}
    (run.GOLDEN / "graph_26_30.json").write_text(json.dumps(record, indent=1) + "\n")

    queries = run.QueryWorkload()
    queries.queries = run.querygen.make_queries(run.DEFAULT_SEED, run.QUERY_COUNT)
    results, _ = queries.execute(lib)
    digest = {"seed": run.DEFAULT_SEED, "queries": len(results), "sha256": run.query_digest(results)}
    (run.GOLDEN / "cli_queries.json").write_text(json.dumps(digest, indent=1) + "\n")


if __name__ == "__main__":
    main()
