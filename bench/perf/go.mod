// The benchmark is a module of its own so that the repository's tier-1
// `go build ./... && go test ./...` never compiles or runs it. The module
// path keeps the s3sched/ prefix, which is what lets it import
// s3sched/internal/... through the replace below.
module s3sched/bench/perf

go 1.22

require s3sched v0.0.0

replace s3sched => ../..
