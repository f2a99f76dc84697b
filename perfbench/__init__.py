"""The repository benchmark: named workloads on the public engine API,
end-to-end metrics from untraced runs and per-layer metrics from a
separate traced run.  See ``perfbench/README.md``."""
