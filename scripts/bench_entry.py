"""Append one (commit, workload) entry to BENCH_trajectory.json from saved benchmark runs:
`python3 scripts/bench_entry.py COMMIT SECONDS RUN.txt...`, each RUN.txt the stdout of one
`perfbench/run.py --trace 0 --seconds SECONDS` run at COMMIT, all of one workload and seed
on one host.  Each run's last line (its JSON object) is kept as printed, with its rounds.
"""
import datetime, json, os, sys  # noqa: E401

commit, seconds, *paths = sys.argv[1:]
texts = [open(path).read().splitlines() for path in paths]
heads = [dict(f.split("=", 1) for f in lines[0].split() if "=" in f) for lines in texts]
common = {key: heads[0][key] for key in ("workload", "seed", "python", "numpy", "nproc")}
assert all({key: h[key] for key in common} == common for h in heads), "one workload, seed, host"
entry = {"commit": commit, "date": datetime.date.today().isoformat(), "workload": common["workload"],
         "seed": int(common["seed"]), "seconds": float(seconds),
         "host": {"cpus": int(common["nproc"]), "python": common["python"], "numpy": common["numpy"]},
         "runs": [{"rounds": int(h["rounds"].split("+")[0]), **json.loads(lines[-1])}
                  for h, lines in zip(heads, texts)]}
old = json.load(open("BENCH_trajectory.json")) if os.path.exists("BENCH_trajectory.json") else []
with open("BENCH_trajectory.json", "w") as fh:
    print(json.dumps(old + [entry], indent=1), file=fh)
