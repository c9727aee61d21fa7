// The benchmark is a module of its own so that it builds with its own
// build file; the module path sits under "repro/" so the Go internal-
// package rule still lets it import repro/internal/... through the
// replace directive.
module repro/benchmark

go 1.23

require repro v0.0.0

replace repro => ../
