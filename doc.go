// Package vocabpipe is a simulation-based reproduction of "Balancing
// Pipeline Parallelism with Vocabulary Parallelism" (Yeung, Qi, Lin and Wan,
// MLSys 2025, arXiv:2411.05288): an analytical cost model calibrated to the
// paper's A100 measurements, a deterministic pipeline-schedule constructor
// for the 1F1B, V-Half, interlaced and vocabulary-parallel variants, and a
// concurrent sweep engine that regenerates every table and figure.
//
// The root package holds only this documentation and the benchmark harness
// (bench_test.go); the implementation lives under internal/ and the
// executables under cmd/ — see README.md for the package map.
package vocabpipe
