// End-to-end QueryService tests (DESIGN.md §13): batched results match the
// single-query path, deadline expiry short-circuits before encode
// (metrics-asserted), backpressure surfaces as ResourceExhausted, and the
// SLO counters account for every submitted request.
#include "serve/query_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/searcher.h"
#include "lake/generator.h"
#include "util/metrics.h"

namespace deepjoin {
namespace serve {
namespace {

u64 CounterValue(const char* name) {
  return metrics::MetricsRegistry::Global().GetCounter(name)->value();
}

class ServeQueryServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lake::LakeGenerator gen(lake::LakeConfig::Webtable(808));
    repo_ = gen.GenerateRepository(300);
    queries_ = gen.GenerateQueries(8);
    FastTextConfig fc;
    fc.dim = 16;
    embedder_ = std::make_unique<FastTextEmbedder>(fc);
    encoder_ = std::make_unique<core::FastTextColumnEncoder>(
        embedder_.get(), core::TransformConfig{});
    core::SearcherConfig sc;
    sc.backend = core::AnnBackend::kFlat;
    searcher_ = std::make_unique<core::EmbeddingSearcher>(encoder_.get(), sc);
    ASSERT_TRUE(searcher_->BuildIndex(repo_).ok());
  }

  void TearDown() override {
    if (!index_path_.empty()) std::remove(index_path_.c_str());
  }

  /// A flat searcher over the fixture index saved as SQ8 with a float
  /// refinement store and loaded back, so refine_factor changes results.
  std::unique_ptr<core::EmbeddingSearcher> LoadQuantizedFlat() {
    // Per-test filename: ctest runs each case as its own process.
    index_path_ =
        std::string(::testing::TempDir()) + "/serve_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".djx";
    ann::SaveOptions save;
    save.storage = ann::StorageKind::kSq8;
    save.keep_float_refine = true;
    EXPECT_TRUE(searcher_->SaveIndex(index_path_, nullptr, save).ok());
    core::SearcherConfig sc;
    sc.backend = core::AnnBackend::kFlat;
    auto quantized =
        std::make_unique<core::EmbeddingSearcher>(encoder_.get(), sc);
    EXPECT_TRUE(quantized->LoadIndex(index_path_).ok());
    return quantized;
  }

  /// The first query whose direct top-k differs between refine_factor 0
  /// and 4 on `searcher`; fails the test if there is none (a refine
  /// assertion would then be vacuous).
  size_t RefineSensitiveQuery(core::EmbeddingSearcher* searcher, size_t k) {
    for (size_t q = 0; q < queries_.size(); ++q) {
      const auto raw = searcher->Search(
          queries_[q], {.k = k, .refine_factor = 0, .collect_stats = false});
      const auto refined = searcher->Search(
          queries_[q], {.k = k, .refine_factor = 4, .collect_stats = false});
      if (raw.ids != refined.ids) return q;
    }
    ADD_FAILURE() << "refine_factor changes no query's top-" << k;
    return 0;
  }

  lake::Repository repo_;
  std::vector<lake::Column> queries_;
  std::string index_path_;
  std::unique_ptr<FastTextEmbedder> embedder_;
  std::unique_ptr<core::FastTextColumnEncoder> encoder_;
  std::unique_ptr<core::EmbeddingSearcher> searcher_;
};

TEST_F(ServeQueryServiceTest, BlockingQueryMatchesDirectSearch) {
  QueryService service(searcher_.get(), QueryServiceConfig{});
  service.Start();
  for (const auto& q : queries_) {
    core::EmbeddingSearcher::SearchResult served;
    ASSERT_TRUE(
        service.Query(q, {.k = 10}, Deadline::Infinite(), &served).ok());
    auto direct = searcher_->Search(q, {.k = 10, .collect_stats = false});
    EXPECT_EQ(served.ids, direct.ids);
  }
  service.Stop();
}

TEST_F(ServeQueryServiceTest, AsyncBatchCompletesEveryRequest) {
  QueryServiceConfig cfg;
  cfg.batcher.max_batch = 4;
  cfg.batcher.max_wait_ms = 1.0;
  QueryService service(searcher_.get(), cfg);
  service.Start();
  constexpr size_t kInFlight = 16;
  std::vector<Request> reqs(kInFlight);
  std::atomic<int> completions{0};
  for (size_t i = 0; i < kInFlight; ++i) {
    reqs[i].query = &queries_[i % queries_.size()];
    reqs[i].options = {.k = 5};
    reqs[i].ctx = &completions;
    reqs[i].done = [](Request* r) {
      static_cast<std::atomic<int>*>(r->ctx)->fetch_add(1);
    };
    ASSERT_TRUE(service.Submit(&reqs[i]).ok());
  }
  service.Stop();  // drains: exactly one completion per admitted request
  EXPECT_EQ(completions.load(), static_cast<int>(kInFlight));
  for (auto& r : reqs) {
    EXPECT_TRUE(r.status.ok());
    EXPECT_EQ(r.result.ids.size(), 5u);
    EXPECT_GE(r.total_ms, r.queue_ms);
  }
}

// One collected batch mixing k and refine_factor: the dispatcher splits it
// into runs of identical options, so every request is served with its own
// options. Neighbouring requests that differ only in refine_factor must not
// share a run. Runs on an SQ8 index with a float refinement store, where
// refine_factor changes results.
TEST_F(ServeQueryServiceTest, MixedOptionsSplitIntoCompatibleRuns) {
  auto quantized = LoadQuantizedFlat();
  const size_t q = RefineSensitiveQuery(quantized.get(), 10);
  QueryServiceConfig cfg;
  cfg.batcher.max_batch = 8;
  QueryService service(quantized.get(), cfg);
  // Submit-before-Start so the mixed batch is collected as one flush.
  const std::vector<core::SearchOptions> options = {
      {.k = 10, .refine_factor = 0}, {.k = 10, .refine_factor = 4},
      {.k = 10, .refine_factor = 4}, {.k = 10, .refine_factor = 0},
      {.k = 3, .refine_factor = 0},  {.k = 7, .refine_factor = 4},
  };
  std::vector<Request> reqs(options.size());
  std::atomic<int> completions{0};
  for (size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].query = &queries_[q];
    reqs[i].options = options[i];
    reqs[i].ctx = &completions;
    reqs[i].done = [](Request* r) {
      static_cast<std::atomic<int>*>(r->ctx)->fetch_add(1);
    };
    ASSERT_TRUE(service.Submit(&reqs[i]).ok());
  }
  service.Start();
  service.Stop();
  EXPECT_EQ(completions.load(), static_cast<int>(reqs.size()));
  for (size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_TRUE(reqs[i].status.ok());
    core::SearchOptions direct = options[i];
    direct.collect_stats = false;
    EXPECT_EQ(reqs[i].result.ids, quantized->Search(queries_[q], direct).ids)
        << "request " << i << " (k " << options[i].k << ", refine_factor "
        << options[i].refine_factor << ")";
  }
}

// Served flat queries honour every search option, not only k: on an SQ8
// index with a float refinement store, a served query equals the direct
// Search with the same refine_factor.
TEST_F(ServeQueryServiceTest, ServedSq8RefineMatchesDirectSearch) {
  auto quantized = LoadQuantizedFlat();
  (void)RefineSensitiveQuery(quantized.get(), 10);
  QueryService service(quantized.get(), QueryServiceConfig{});
  service.Start();
  for (const int refine_factor : {0, 4}) {
    for (const auto& query : queries_) {
      const core::SearchOptions opts{.k = 10, .refine_factor = refine_factor,
                                     .collect_stats = false};
      core::EmbeddingSearcher::SearchResult served;
      ASSERT_TRUE(
          service.Query(query, opts, Deadline::Infinite(), &served).ok());
      EXPECT_EQ(served.ids, quantized->Search(query, opts).ids)
          << "refine_factor " << refine_factor;
    }
  }
  service.Stop();
}

// The acceptance-criteria test: a request whose deadline expires in the
// queue completes with DeadlineExceeded WITHOUT entering the encode/search
// stage — asserted through the metrics the SLO layer exports:
// dj_serve_expired_total moves, dj_searcher_searches_total does not.
TEST_F(ServeQueryServiceTest, ServeDeadlineExpiryShortCircuitsBeforeEncode) {
  QueryServiceConfig cfg;
  cfg.batcher.max_wait_ms = 10000;
  cfg.batcher.idle_poll_ms = 10000;
  QueryService service(searcher_.get(), cfg);
  const u64 searches_before = CounterValue("dj_searcher_searches_total");
  const u64 expired_before = CounterValue("dj_serve_expired_total");

  Request req;
  req.query = &queries_[0];
  req.options = {.k = 5};
  req.deadline = Deadline::AfterMillis(5);
  req.done = [](Request*) {};
  // Service not started: the request sits queued past its deadline; the
  // drain pass in Stop() must expire it, not execute it.
  ASSERT_TRUE(service.Submit(&req).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  service.Stop();

  EXPECT_EQ(req.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(req.result.ids.empty());
  EXPECT_EQ(CounterValue("dj_serve_expired_total"), expired_before + 1);
  EXPECT_EQ(CounterValue("dj_searcher_searches_total"), searches_before)
      << "expired request must not reach the encode/search stage";
}

// Expiry at admission: Submit itself refuses an already-expired request.
TEST_F(ServeQueryServiceTest, ServeDeadlineExpiredAtAdmission) {
  QueryService service(searcher_.get(), QueryServiceConfig{});
  service.Start();
  core::EmbeddingSearcher::SearchResult out;
  const u64 searches_before = CounterValue("dj_searcher_searches_total");
  Status st = service.Query(queries_[0], {.k = 5}, Deadline::AfterMillis(-1),
                            &out);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(CounterValue("dj_searcher_searches_total"), searches_before);
  service.Stop();
}

// Deterministic backpressure: with the dispatcher not yet running, the
// queue fills to exactly max_queue and the next Submit is rejected with
// ResourceExhausted (and counted as such).
TEST_F(ServeQueryServiceTest, ServeBackpressureRejectsPastMaxQueue) {
  QueryServiceConfig cfg;
  cfg.batcher.max_queue = 8;
  QueryService service(searcher_.get(), cfg);
  const u64 rejected_before = CounterValue("dj_serve_rejected_total");
  std::vector<Request> reqs(9);
  for (size_t i = 0; i < 8; ++i) {
    reqs[i].query = &queries_[0];
    reqs[i].done = [](Request*) {};
    ASSERT_TRUE(service.Submit(&reqs[i]).ok());
  }
  reqs[8].query = &queries_[0];
  reqs[8].done = [](Request*) {};
  EXPECT_EQ(service.Submit(&reqs[8]).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(CounterValue("dj_serve_rejected_total"), rejected_before + 1);
  // Start/Stop drains the 8 admitted requests; the rejected node is
  // untouched (caller still owns it, no completion fires).
  service.Start();
  service.Stop();
  for (size_t i = 0; i < 8; ++i) EXPECT_TRUE(reqs[i].status.ok());
  EXPECT_TRUE(reqs[8].status.ok()) << "rejected request must not be written";
  EXPECT_TRUE(reqs[8].result.ids.empty());
}

// Every submitted request is accounted exactly once across the admission
// and completion counters.
TEST_F(ServeQueryServiceTest, SloCountersBalance) {
  QueryServiceConfig cfg;
  cfg.batcher.max_batch = 4;
  QueryService service(searcher_.get(), cfg);
  const u64 admitted0 = CounterValue("dj_serve_admitted_total");
  const u64 completed0 = CounterValue("dj_serve_completed_total");
  const u64 batches0 = CounterValue("dj_serve_batches_total");
  service.Start();
  for (int i = 0; i < 12; ++i) {
    core::EmbeddingSearcher::SearchResult out;
    ASSERT_TRUE(service
                    .Query(queries_[i % queries_.size()], {.k = 3},
                           Deadline::Infinite(), &out)
                    .ok());
  }
  service.Stop();
  EXPECT_EQ(CounterValue("dj_serve_admitted_total") - admitted0, 12u);
  EXPECT_EQ(CounterValue("dj_serve_completed_total") - completed0, 12u);
  EXPECT_GE(CounterValue("dj_serve_batches_total") - batches0, 1u);
}

}  // namespace
}  // namespace serve
}  // namespace deepjoin
