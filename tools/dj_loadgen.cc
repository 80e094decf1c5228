// dj_loadgen: open-loop load generator for the serving layer (DESIGN.md
// §13). Builds a flat-backend searcher over a synthetic lake, measures the
// closed-loop single-query baseline, then drives a QueryService at a sweep
// of offered rates with Poisson (exponential inter-arrival) admissions —
// open loop: arrivals do not wait for completions, so queueing pressure is
// real — and reports p50/p95/p99 latency, throughput, goodput, rejects and
// expiries per rate, as JSON (BENCH_serve.json via tools/bench_snapshot.sh).
//
//   dj_loadgen [--repo=N] [--dim=D] [--k=N] [--secs=S]
//              [--rates=0.3,1,2,4,8]      (multiples of baseline capacity)
//              [--max-batch=N] [--max-queue=N] [--max-wait-ms=MS]
//              [--deadline-ms=MS]         (0 = no per-request deadline)
//              [--out=PATH] [--metrics]
//
// The headline derived figures:
//   saturation_speedup  = best sweep goodput / single-query throughput
//                         (the batched-scan amortisation; >= 3x on a
//                         corpus larger than cache),
//   low_rate_p99_ratio  = p99 at the lowest offered rate / single-query
//                         latency (the batching latency tax; reported,
//                         no acceptance bar).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/searcher.h"
#include "lake/generator.h"
#include "serve/query_service.h"
#include "util/flags.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace deepjoin;

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

struct SweepResult {
  double rate_multiplier = 0;
  double offered_qps = 0;
  size_t offered = 0;
  size_t completed = 0;
  size_t rejected = 0;
  size_t expired = 0;
  double duration_s = 0;
  double goodput_qps = 0;
  double p50_ms = 0, p95_ms = 0, p99_ms = 0;
};

double Percentile(std::vector<double>* sorted_into, double p) {
  if (sorted_into->empty()) return 0;
  std::sort(sorted_into->begin(), sorted_into->end());
  const double idx = p * static_cast<double>(sorted_into->size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, sorted_into->size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return (*sorted_into)[lo] * (1 - frac) + (*sorted_into)[hi] * frac;
}

/// Shared completion-side state. The callback runs on the dispatcher
/// thread; the arrival loop runs on main — one short-lived lock covers
/// the freelist and the tallies.
struct Harness {
  Mutex mu;  // tool-local, short-lived: unranked by design
  std::vector<size_t> free_slots;
  std::vector<double> ok_latency_ms;
  size_t completed = 0;
  size_t expired = 0;
};

struct ClientReq {
  serve::Request req;
  Harness* harness = nullptr;
  Clock::time_point submit_tp{};
  size_t slot = 0;
};

void OnDone(serve::Request* r) {
  auto* const cr = static_cast<ClientReq*>(r->ctx);
  const double ms = MsSince(cr->submit_tp, Clock::now());
  Harness* const h = cr->harness;
  MutexLock lock(h->mu);
  if (r->status.ok()) {
    h->ok_latency_ms.push_back(ms);
  } else {
    ++h->expired;  // only DeadlineExceeded flows through completions here
  }
  ++h->completed;
  h->free_slots.push_back(cr->slot);
}

SweepResult RunOpenLoop(core::EmbeddingSearcher* searcher,
                        const std::vector<lake::Column>& queries, size_t k,
                        const serve::BatcherConfig& bc, double offered_qps,
                        double secs, double deadline_ms, Rng* rng) {
  serve::QueryServiceConfig qc;
  qc.batcher = bc;
  serve::QueryService service(searcher, qc);
  service.Start();

  const size_t pool_size = bc.max_queue + bc.max_batch + 64;
  std::vector<ClientReq> reqs(pool_size);
  Harness harness;
  {
    MutexLock lock(harness.mu);
    for (size_t i = 0; i < pool_size; ++i) harness.free_slots.push_back(i);
    harness.ok_latency_ms.reserve(
        static_cast<size_t>(offered_qps * secs) + 16);
  }

  SweepResult res;
  res.offered_qps = offered_qps;
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(secs));
  auto next_arrival = start;
  size_t qi = 0;
  while (next_arrival < end) {
    std::this_thread::sleep_until(next_arrival);
    const auto now = Clock::now();
    // Open loop: submit every arrival that is due, even if the scheduler
    // woke us late — lateness becomes queueing, not a slower arrival
    // process.
    while (next_arrival <= now && next_arrival < end) {
      ++res.offered;
      size_t slot = pool_size;  // sentinel: none free
      {
        MutexLock lock(harness.mu);
        if (!harness.free_slots.empty()) {
          slot = harness.free_slots.back();
          harness.free_slots.pop_back();
        }
      }
      if (slot == pool_size) {
        // More in flight than queue+batch can hold: admission would have
        // rejected it anyway.
        ++res.rejected;
      } else {
        ClientReq& cr = reqs[slot];
        cr.harness = &harness;
        cr.slot = slot;
        cr.submit_tp = Clock::now();
        cr.req.query = &queries[qi++ % queries.size()];
        cr.req.options = {.k = k, .collect_stats = false};
        cr.req.deadline = deadline_ms > 0
                              ? serve::Deadline::AfterMillis(deadline_ms)
                              : serve::Deadline::Infinite();
        cr.req.done = &OnDone;
        cr.req.ctx = &cr;
        const Status st = service.Submit(&cr.req);
        if (!st.ok()) {
          ++res.rejected;
          MutexLock lock(harness.mu);
          harness.free_slots.push_back(slot);
        }
      }
      next_arrival += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(rng->Exponential(offered_qps)));
    }
  }
  // Drain: every admitted request completes (executed or expired).
  service.Stop();
  res.duration_s = std::chrono::duration<double>(Clock::now() - start).count();

  MutexLock lock(harness.mu);
  res.completed = harness.ok_latency_ms.size();
  res.expired = harness.expired;
  res.goodput_qps = static_cast<double>(res.completed) / res.duration_s;
  res.p50_ms = Percentile(&harness.ok_latency_ms, 0.50);
  res.p95_ms = Percentile(&harness.ok_latency_ms, 0.95);
  res.p99_ms = Percentile(&harness.ok_latency_ms, 0.99);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.Parse(argc, argv);
  const size_t repo_size = static_cast<size_t>(flags.GetInt("repo", 4000));
  const int dim = flags.GetInt("dim", 64);
  const size_t k = static_cast<size_t>(flags.GetInt("k", 10));
  const double secs = flags.GetDouble("secs", 2.0);
  const std::string rates_csv = flags.GetString("rates", "0.3,1,2,4,8");
  const double deadline_ms = flags.GetDouble("deadline-ms", 0.0);
  const std::string out_path = flags.GetString("out", "");
  const bool dump_metrics = flags.GetBool("metrics", false);

  serve::BatcherConfig bc;
  bc.max_batch = static_cast<size_t>(flags.GetInt("max-batch", 64));
  bc.max_queue = static_cast<size_t>(flags.GetInt("max-queue", 256));
  bc.max_wait_ms = flags.GetDouble("max-wait-ms", 1.0);

  std::vector<double> rate_multipliers;
  for (size_t pos = 0; pos < rates_csv.size();) {
    size_t comma = rates_csv.find(',', pos);
    if (comma == std::string::npos) comma = rates_csv.size();
    rate_multipliers.push_back(std::stod(rates_csv.substr(pos, comma - pos)));
    pos = comma + 1;
  }

  // ---- Corpus: flat backend, dimensioned so the corpus outsizes cache at
  // bench scale (repo * dim * 4 bytes). Single-query scans are then
  // memory-bound while batched scans stay compute-bound — the regime the
  // batcher exists for. ----
  std::fprintf(stderr, "dj_loadgen: building corpus (%zu cols, dim %d)...\n",
               repo_size, dim);
  lake::LakeGenerator gen(lake::LakeConfig::Webtable(4242));
  lake::Repository repo = gen.GenerateRepository(repo_size);
  auto queries = gen.GenerateQueries(256, 0x57A7);
  FastTextConfig fc;
  fc.dim = dim;
  FastTextEmbedder embedder(fc);
  embedder.TrainSynonyms(gen.SynonymLexicon(), 0.8, 2);
  core::FastTextColumnEncoder encoder(&embedder, core::TransformConfig{});
  core::SearcherConfig sc;
  sc.backend = core::AnnBackend::kFlat;
  core::EmbeddingSearcher searcher(&encoder, sc);
  {
    ThreadPool pool(2);
    if (auto st = searcher.BuildIndex(repo, &pool); !st.ok()) {
      std::fprintf(stderr, "dj_loadgen: BuildIndex failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }

  // ---- Closed-loop single-query baseline ----
  core::SearchOptions so{.k = k, .collect_stats = false};
  for (int i = 0; i < 3; ++i) {
    (void)searcher.Search(queries[i % queries.size()], so);  // warmup
  }
  WallTimer baseline;
  size_t baseline_n = 0;
  while (baseline_n < 64 && baseline.ElapsedSeconds() < 1.5) {
    (void)searcher.Search(queries[baseline_n % queries.size()], so);
    ++baseline_n;
  }
  const double single_ms =
      baseline.ElapsedMillis() / static_cast<double>(baseline_n);
  const double single_qps = 1000.0 / single_ms;
  std::fprintf(stderr,
               "dj_loadgen: baseline %.3f ms/query (%.1f qps, %zu samples)\n",
               single_ms, single_qps, baseline_n);

  // ---- Offered-rate sweep ----
  Rng rng(0xC0FFEE);
  std::vector<SweepResult> sweep;
  for (const double m : rate_multipliers) {
    SweepResult r = RunOpenLoop(&searcher, queries, k, bc, m * single_qps,
                                secs, deadline_ms, &rng);
    r.rate_multiplier = m;
    std::fprintf(stderr,
                 "dj_loadgen: rate %.2fx (%.1f qps): offered %zu, ok %zu, "
                 "rejected %zu, expired %zu, goodput %.1f qps, "
                 "p50/p95/p99 %.2f/%.2f/%.2f ms\n",
                 m, r.offered_qps, r.offered, r.completed, r.rejected,
                 r.expired, r.goodput_qps, r.p50_ms, r.p95_ms, r.p99_ms);
    sweep.push_back(r);
  }

  double best_goodput = 0;
  for (const auto& r : sweep) best_goodput = std::max(best_goodput, r.goodput_qps);
  const double saturation_speedup = best_goodput / single_qps;
  const double low_rate_p99_ratio =
      sweep.empty() || single_ms <= 0 ? 0 : sweep.front().p99_ms / single_ms;

  std::string json;
  char buf[512];
  auto add = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    json += buf;
  };
  json += "{\n";
  add("  \"corpus\": {\"columns\": %zu, \"dim\": %d, \"bytes\": %zu},\n",
      repo_size, dim, repo_size * static_cast<size_t>(dim) * sizeof(float));
  add("  \"config\": {\"k\": %zu, \"max_batch\": %zu, \"max_queue\": %zu, "
      "\"max_wait_ms\": %.3f, \"deadline_ms\": %.3f, \"secs\": %.3f},\n",
      k, bc.max_batch, bc.max_queue, bc.max_wait_ms, deadline_ms, secs);
  add("  \"single_query\": {\"mean_ms\": %.4f, \"qps\": %.2f, "
      "\"samples\": %zu},\n",
      single_ms, single_qps, baseline_n);
  json += "  \"sweep\": [\n";
  for (size_t i = 0; i < sweep.size(); ++i) {
    const auto& r = sweep[i];
    add("    {\"rate_multiplier\": %.2f, \"offered_qps\": %.2f, "
        "\"offered\": %zu, \"completed\": %zu, \"rejected\": %zu, "
        "\"expired\": %zu, \"duration_s\": %.3f, \"goodput_qps\": %.2f, "
        "\"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f}%s\n",
        r.rate_multiplier, r.offered_qps, r.offered, r.completed, r.rejected,
        r.expired, r.duration_s, r.goodput_qps, r.p50_ms, r.p95_ms, r.p99_ms,
        i + 1 < sweep.size() ? "," : "");
  }
  json += "  ],\n";
  add("  \"saturation_speedup\": %.3f,\n", saturation_speedup);
  add("  \"low_rate_p99_ratio\": %.3f", low_rate_p99_ratio);
  if (dump_metrics) {
    json += ",\n  \"metrics\": ";
    json += metrics::MetricsRegistry::Global().Snapshot().ToJson();
  }
  json += "\n}\n";

  if (out_path.empty()) {
    std::printf("%s", json.c_str());
  } else {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "dj_loadgen: cannot open %s\n", out_path.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
  }
  std::fprintf(stderr,
               "dj_loadgen: saturation_speedup %.2fx, low_rate_p99_ratio "
               "%.2fx\n",
               saturation_speedup, low_rate_p99_ratio);
  return 0;
}
