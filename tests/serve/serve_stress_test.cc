// TSan-labeled serving stress (DESIGN.md §13): open-loop clients with
// mixed deadlines racing the dispatcher while a mutator churns the live
// index underneath — the admission queue, the batcher's intrusive list,
// the RCU snapshot swap, and the completion callbacks all under
// -fsanitize=thread via tools/check.sh. The load-bearing invariant:
// every admitted request gets exactly one completion, and every
// completion is OK or DeadlineExceeded.
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/searcher.h"
#include "lake/generator.h"
#include "serve/query_service.h"

namespace deepjoin {
namespace serve {
namespace {

class ServeStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lake::LakeGenerator gen(lake::LakeConfig::Webtable(4242));
    repo_ = gen.GenerateRepository(120);
    queries_ = gen.GenerateQueries(8);
    FastTextConfig fc;
    fc.dim = 8;
    embedder_ = std::make_unique<FastTextEmbedder>(fc);
    encoder_ = std::make_unique<core::FastTextColumnEncoder>(
        embedder_.get(), core::TransformConfig{});
  }

  lake::Repository repo_;
  std::vector<lake::Column> queries_;
  std::unique_ptr<FastTextEmbedder> embedder_;
  std::unique_ptr<core::FastTextColumnEncoder> encoder_;
};

TEST_F(ServeStressTest, BlockingClientsRaceLiveMutator) {
  core::SearcherConfig sc;
  // HNSW: the one backend with a concurrent insert/delete/search contract
  // (DESIGN.md §12) — flat has no internal synchronisation, so in-place
  // mutation may not race its scans (snapshot *rebuilds* may: see
  // BlockingClientsRaceSnapshotRebuilds).
  sc.backend = core::AnnBackend::kHnsw;
  core::EmbeddingSearcher searcher(encoder_.get(), sc);
  ASSERT_TRUE(searcher.BuildIndex(repo_).ok());

  QueryServiceConfig cfg;
  cfg.batcher.max_batch = 8;
  cfg.batcher.max_wait_ms = 0.5;
  QueryService service(&searcher, cfg);
  service.Start();

  // Mutator: adds and removes race the batched searches through the RCU
  // snapshot swap (mutations serialize on the writer token internally).
  std::atomic<bool> done{false};
  std::thread mutator([&] {
    u32 next_remove = 0;
    for (int it = 0; !done.load(std::memory_order_acquire); ++it) {
      if (it % 3 == 2) {
        (void)searcher.RemoveColumn(next_remove++);
      } else {
        (void)searcher.AddColumn(
            repo_.column(static_cast<u32>(it) % repo_.size()));
      }
      if (it % 50 == 49) (void)searcher.Compact();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  constexpr int kClients = 3;
  constexpr int kPerClient = 40;
  std::atomic<int> ok{0}, expired{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerClient; ++i) {
        // Every 4th request gets a deadline tight enough to expire at any
        // of the three stages (queued / batched / executing).
        const Deadline dl = (i % 4 == 3) ? Deadline::AfterMillis(0.05)
                                         : Deadline::AfterMillis(2000);
        core::EmbeddingSearcher::SearchResult out;
        const Status st = service.Query(
            queries_[(i + t) % queries_.size()], {.k = 5}, dl, &out);
        if (st.ok()) {
          EXPECT_LE(out.ids.size(), 5u);
          ok.fetch_add(1);
        } else {
          ASSERT_EQ(st.code(), StatusCode::kDeadlineExceeded)
              << st.ToString();
          expired.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  done.store(true, std::memory_order_release);
  mutator.join();
  service.Stop();

  // Exactly one outcome per request, and the slow majority all complete.
  EXPECT_EQ(ok.load() + expired.load(), kClients * kPerClient);
  EXPECT_GT(ok.load(), 0);
}

// Flat-backend racing: each executed run pins a snapshot while a mutator
// republishes new ones (BuildIndex → RCU swap), so batches straddling a
// swap run under TSan. In-place flat mutation is out of contract;
// whole-snapshot replacement is not.
TEST_F(ServeStressTest, BlockingClientsRaceSnapshotRebuilds) {
  core::SearcherConfig sc;
  sc.backend = core::AnnBackend::kFlat;
  core::EmbeddingSearcher searcher(encoder_.get(), sc);
  ASSERT_TRUE(searcher.BuildIndex(repo_).ok());

  QueryServiceConfig cfg;
  cfg.batcher.max_batch = 8;
  cfg.batcher.max_wait_ms = 0.5;
  QueryService service(&searcher, cfg);
  service.Start();

  std::atomic<bool> done{false};
  std::thread rebuilder([&] {
    while (!done.load(std::memory_order_acquire)) {
      ASSERT_TRUE(searcher.BuildIndex(repo_).ok());
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  constexpr int kClients = 3;
  constexpr int kPerClient = 40;
  std::atomic<int> ok{0}, expired{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerClient; ++i) {
        const Deadline dl = (i % 4 == 3) ? Deadline::AfterMillis(0.05)
                                         : Deadline::AfterMillis(2000);
        core::EmbeddingSearcher::SearchResult out;
        const Status st = service.Query(
            queries_[(i + t) % queries_.size()], {.k = 5}, dl, &out);
        if (st.ok()) {
          EXPECT_EQ(out.ids.size(), 5u);
          ok.fetch_add(1);
        } else {
          ASSERT_EQ(st.code(), StatusCode::kDeadlineExceeded)
              << st.ToString();
          expired.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  done.store(true, std::memory_order_release);
  rebuilder.join();
  service.Stop();

  EXPECT_EQ(ok.load() + expired.load(), kClients * kPerClient);
  EXPECT_GT(ok.load(), 0);
}

TEST_F(ServeStressTest, AsyncFloodCompletesEachAdmittedRequestOnce) {
  core::SearcherConfig sc;
  sc.backend = core::AnnBackend::kFlat;
  core::EmbeddingSearcher searcher(encoder_.get(), sc);
  ASSERT_TRUE(searcher.BuildIndex(repo_).ok());

  QueryServiceConfig cfg;
  cfg.batcher.max_batch = 4;
  cfg.batcher.max_queue = 16;  // small queue: force real rejections
  cfg.batcher.max_wait_ms = 0.2;
  QueryService service(&searcher, cfg);
  service.Start();

  constexpr int kTotal = 200;
  std::vector<Request> reqs(kTotal);
  // One completion slot per request: `done` increments exactly its own.
  std::vector<std::atomic<int>> completions(kTotal);
  for (auto& c : completions) c.store(0);
  std::atomic<int> admitted{0}, rejected{0};

  constexpr int kThreads = 2;
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      for (int i = t; i < kTotal; i += kThreads) {
        Request& r = reqs[i];
        r.query = &queries_[i % queries_.size()];
        r.options = {.k = 3};
        r.deadline = (i % 7 == 6) ? Deadline::AfterMillis(0.1)
                                  : Deadline::Infinite();
        r.ctx = &completions[i];
        r.done = [](Request* self) {
          static_cast<std::atomic<int>*>(self->ctx)->fetch_add(1);
        };
        const Status st = service.Submit(&r);
        if (st.ok()) {
          admitted.fetch_add(1);
        } else {
          ASSERT_TRUE(st.code() == StatusCode::kResourceExhausted ||
                      st.code() == StatusCode::kDeadlineExceeded)
              << st.ToString();
          rejected.fetch_add(1);
          completions[i].store(-1);  // mark: must never complete
        }
      }
    });
  }
  for (auto& p : producers) p.join();
  service.Stop();  // drains every admitted request

  int completed = 0;
  for (int i = 0; i < kTotal; ++i) {
    const int c = completions[i].load();
    if (c == -1) continue;  // rejected at admission: untouched by service
    EXPECT_EQ(c, 1) << "request " << i << " completed " << c << " times";
    ++completed;
  }
  EXPECT_EQ(completed, admitted.load());
  EXPECT_EQ(admitted.load() + rejected.load(), kTotal);
  // The tiny queue under a 2-thread flood must have pushed back at least
  // once — otherwise this test isn't exercising backpressure.
  EXPECT_GT(rejected.load(), 0);
}

}  // namespace
}  // namespace serve
}  // namespace deepjoin
