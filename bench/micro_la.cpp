// Micro-benchmarks (real wall time) for the local linear algebra kernels —
// the OpenBLAS substitute underlying every distributed operation.
//
// Besides the stock google-benchmark CLI, `--bench-out FILE` writes a
// BENCH_micro.json perf artifact: a "deterministic" section (which
// benchmarks ran — diffed exactly by the perf gate) and a "wall" section
// (per-benchmark real ns of the fastest repetition — gated with a wide
// tolerance, since kernel times vary run-to-run and machine-to-machine).
#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "la/kernels.h"
#include "la/rand.h"

namespace {

using namespace rgml::la;

void BM_Gemv(benchmark::State& state) {
  const long m = state.range(0);
  const long n = state.range(1);
  DenseMatrix a = makeUniformDense(m, n, 1);
  Vector x = makeUniformVector(n, 2);
  Vector y(m);
  for (auto _ : state) {
    gemv(a, x.span(), y.span());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * m * n * 2);
}
BENCHMARK(BM_Gemv)->Args({1000, 100})->Args({5000, 100})->Args({5000, 500});

// {5000, 100} is linreg-dense's X block shape.
void BM_GemvRef(benchmark::State& state) {
  const long m = state.range(0);
  const long n = state.range(1);
  DenseMatrix a = makeUniformDense(m, n, 1);
  Vector x = makeUniformVector(n, 2);
  Vector y(m);
  for (auto _ : state) {
    gemv_ref(a, x.span(), y.span());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * m * n * 2);
}
BENCHMARK(BM_GemvRef)->Args({5000, 100});

void BM_GemvTrans(benchmark::State& state) {
  const long m = state.range(0);
  const long n = state.range(1);
  DenseMatrix a = makeUniformDense(m, n, 3);
  Vector x = makeUniformVector(m, 4);
  Vector y(n);
  for (auto _ : state) {
    gemvTrans(a, x.span(), y.span());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * m * n * 2);
}
BENCHMARK(BM_GemvTrans)->Args({1000, 100})->Args({5000, 100});

void BM_GemvTransRef(benchmark::State& state) {
  const long m = state.range(0);
  const long n = state.range(1);
  DenseMatrix a = makeUniformDense(m, n, 3);
  Vector x = makeUniformVector(m, 4);
  Vector y(n);
  for (auto _ : state) {
    gemvTrans_ref(a, x.span(), y.span());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * m * n * 2);
}
BENCHMARK(BM_GemvTransRef)->Args({5000, 100});

void BM_Gemm(benchmark::State& state) {
  const long m = state.range(0);
  const long n = state.range(1);
  const long k = state.range(2);
  DenseMatrix a = makeUniformDense(m, k, 11);
  DenseMatrix b = makeUniformDense(k, n, 12);
  DenseMatrix c(m, n);
  for (auto _ : state) {
    gemm(a, b, c);
    benchmark::DoNotOptimize(c.span().data());
  }
  state.SetItemsProcessed(state.iterations() * m * n * k * 2);
}
BENCHMARK(BM_Gemm)
    ->Args({512, 64, 512})
    ->Args({2048, 64, 256})
    ->Args({4096, 16, 4096});

void BM_GemmRef(benchmark::State& state) {
  const long m = state.range(0);
  const long n = state.range(1);
  const long k = state.range(2);
  DenseMatrix a = makeUniformDense(m, k, 11);
  DenseMatrix b = makeUniformDense(k, n, 12);
  DenseMatrix c(m, n);
  for (auto _ : state) {
    gemm_ref(a, b, c);
    benchmark::DoNotOptimize(c.span().data());
  }
  state.SetItemsProcessed(state.iterations() * m * n * k * 2);
}
BENCHMARK(BM_GemmRef)
    ->Args({512, 64, 512})
    ->Args({2048, 64, 256})
    ->Args({4096, 16, 4096});

void BM_Spmm(benchmark::State& state) {
  const long n = state.range(0);
  const long cols = state.range(1);
  SparseCSR a = makeUniformSparse(n, n, 8, 13);
  DenseMatrix b = makeUniformDense(n, cols, 14);
  DenseMatrix c(n, cols);
  for (auto _ : state) {
    spmm(a, b, c);
    benchmark::DoNotOptimize(c.span().data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz() * cols * 2);
}
BENCHMARK(BM_Spmm)->Args({10000, 16})->Args({10000, 64})->Args({100000, 16});

void BM_SpmmRef(benchmark::State& state) {
  const long n = state.range(0);
  const long cols = state.range(1);
  SparseCSR a = makeUniformSparse(n, n, 8, 13);
  DenseMatrix b = makeUniformDense(n, cols, 14);
  DenseMatrix c(n, cols);
  for (auto _ : state) {
    spmm_ref(a, b, c);
    benchmark::DoNotOptimize(c.span().data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz() * cols * 2);
}
BENCHMARK(BM_SpmmRef)
    ->Args({10000, 16})
    ->Args({10000, 64})
    ->Args({100000, 16});

void BM_SpmvCSR(benchmark::State& state) {
  const long n = state.range(0);
  const long nnzPerRow = state.range(1);
  SparseCSR a = makeUniformSparse(n, n, nnzPerRow, 5);
  Vector x = makeUniformVector(n, 6);
  Vector y(n);
  for (auto _ : state) {
    spmv(a, x.span(), y.span());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz() * 2);
}
BENCHMARK(BM_SpmvCSR)->Args({10000, 8})->Args({10000, 32})->Args({100000, 8});

void BM_Dot(benchmark::State& state) {
  const long n = state.range(0);
  Vector x = makeUniformVector(n, 7);
  Vector y = makeUniformVector(n, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dot(x.span(), y.span()));
  }
  state.SetItemsProcessed(state.iterations() * n * 2);
}
BENCHMARK(BM_Dot)->Arg(1000)->Arg(100000);

void BM_SparseSubMatrix(benchmark::State& state) {
  const long n = state.range(0);
  SparseCSR a = makeUniformSparse(n, n, 8, 9);
  for (auto _ : state) {
    auto sub = a.subMatrix(n / 4, n / 4, n / 2, n / 2);
    benchmark::DoNotOptimize(sub.nnz());
  }
}
BENCHMARK(BM_SparseSubMatrix)->Arg(1000)->Arg(10000);

void BM_SparseNnzCount(benchmark::State& state) {
  const long n = state.range(0);
  SparseCSR a = makeUniformSparse(n, n, 8, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.countNonZerosIn(n / 4, n / 4, n / 2, n / 2));
  }
}
BENCHMARK(BM_SparseNnzCount)->Arg(1000)->Arg(10000);

/// Collects every run's name and adjusted real time instead of printing.
/// Keeps each benchmark's fastest repetition (--benchmark_repetitions,
/// ideally with --benchmark_enable_random_interleaving): a neighbour's
/// burst slows the repetitions it lands on, not all of them. Aggregate
/// rows (mean, median, stddev) are skipped.
class CollectingReporter : public benchmark::BenchmarkReporter {
 public:
  bool ReportContext(const Context&) override { return true; }
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      const std::string name = run.benchmark_name();
      const double ns = run.GetAdjustedRealTime();
      const auto it = results.find(name);
      if (it == results.end() || ns < it->second) results[name] = ns;
    }
  }
  std::map<std::string, double> results;
};

}  // namespace

int main(int argc, char** argv) {
  // Strip --bench-out before google-benchmark sees the argument list.
  std::string benchOut;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--bench-out" && i + 1 < argc) {
      benchOut = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  int filteredArgc = static_cast<int>(args.size());
  benchmark::Initialize(&filteredArgc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filteredArgc, args.data())) {
    return 1;
  }
  if (benchOut.empty()) {
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
  }
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  const bool written = rgml::bench::writeBenchFile(
      benchOut, "micro_la",
      [&](rgml::obs::JsonWriter& w) {
        w.member("benchmarks_run", reporter.results.size());
      },
      [&](rgml::obs::JsonWriter& w) {
        for (const auto& [name, ns] : reporter.results) {
          w.member(name + ".real_ns", ns);
        }
      });
  return written ? 0 : 1;
}
