// Concurrent-search stress test: one shared HNSW index queried from many
// threads must return exactly the single-threaded answers. Labeled `tsan`
// so tools/check.sh runs it under -fsanitize=thread, which is what caught
// the original shared visited-marker scratch being mutated from a const
// Search (now a per-query pool, see hnsw.h).
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ann/hnsw.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace deepjoin {
namespace ann {
namespace {

std::vector<float> RandomVectors(size_t n, int dim, u64 seed) {
  Rng rng(seed);
  std::vector<float> data(n * static_cast<size_t>(dim));
  for (auto& x : data) x = static_cast<float>(rng.Normal());
  return data;
}

TEST(HnswConcurrentTest, ParallelQueriesMatchSerialAnswers) {
  HnswConfig hc;
  hc.dim = 16;
  HnswIndex index(hc);
  const size_t n = 1500;
  const auto base = RandomVectors(n, hc.dim, 7);
  for (size_t i = 0; i < n; ++i) index.Add(&base[i * hc.dim]);

  const size_t num_queries = 256;
  const size_t k = 10;
  const auto queries = RandomVectors(num_queries, hc.dim, 99);

  // Ground truth from the single-threaded path.
  std::vector<std::vector<Neighbor>> serial(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    serial[q] = index.Search(&queries[q * hc.dim], k);
  }

  // Same queries, 8 threads, several rounds to vary the interleavings.
  ThreadPool pool(8);
  for (int round = 0; round < 3; ++round) {
    std::vector<std::vector<Neighbor>> parallel(num_queries);
    pool.ParallelFor(num_queries, [&](size_t q) {
      parallel[q] = index.Search(&queries[q * hc.dim], k);
    });
    for (size_t q = 0; q < num_queries; ++q) {
      ASSERT_EQ(parallel[q].size(), serial[q].size()) << "query " << q;
      for (size_t j = 0; j < serial[q].size(); ++j) {
        EXPECT_EQ(parallel[q][j].id, serial[q][j].id)
            << "query " << q << " rank " << j;
        EXPECT_FLOAT_EQ(parallel[q][j].dist, serial[q][j].dist);
      }
    }
  }
}

TEST(HnswConcurrentTest, InsertsAndRemovesRunAlongsideSearches) {
  // The live-mutability contract (hnsw.h): Insert/Remove serialize with
  // each other but run concurrently with SearchInto. A writer thread grows
  // and tombstones the graph while reader threads query it; TSan checks
  // the striped link locks and the count/entry-point publication, the
  // asserts check reader-visible invariants mid-churn.
  HnswConfig hc;
  hc.dim = 8;
  hc.max_elements = 4096;
  HnswIndex index(hc);
  const size_t seed_nodes = 300;
  const size_t churn_nodes = 400;
  const auto base = RandomVectors(seed_nodes + churn_nodes, hc.dim, 21);
  for (size_t i = 0; i < seed_nodes; ++i) index.Add(&base[i * hc.dim]);

  const auto queries = RandomVectors(32, hc.dim, 77);
  std::atomic<bool> done{false};
  std::vector<u32> removed;

  std::thread writer([&] {
    for (size_t i = 0; i < churn_nodes; ++i) {
      u32 id = 0;
      ASSERT_TRUE(
          index.Insert(&base[(seed_nodes + i) * hc.dim], &id).ok());
      if (i % 3 == 0) {
        ASSERT_TRUE(index.Remove(id).ok());
        removed.push_back(id);
      }
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      size_t round = 0;
      while (!done.load(std::memory_order_acquire)) {
        const auto& q = queries[((round + t) % 32) * hc.dim];
        const auto hits = index.Search(&q, 5);
        // Far more than 5 live nodes exist throughout, so a short result
        // means the beam search started from a node that was reachable
        // before its layer-0 adjacency was wired.
        EXPECT_EQ(hits.size(), 5u);
        // A query pins the published count when it starts; every hit id
        // must be below the count observed afterwards (ids only grow).
        const size_t n = index.size();
        for (const auto& h : hits) EXPECT_LT(h.id, n);
        ++round;
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();

  EXPECT_EQ(index.size(), seed_nodes + churn_nodes);
  EXPECT_EQ(index.deleted_count(), removed.size());
  // Once Remove returns, the tombstone filter is absolute: a wide-beam
  // search never surfaces a removed id again.
  for (size_t qi = 0; qi < 8; ++qi) {
    AnnSearchParams params;
    params.ef_search = 256;
    const auto hits = index.Search(&queries[qi * hc.dim], 50, params);
    for (const auto& h : hits) {
      EXPECT_FALSE(index.IsDeleted(h.id));
      for (const u32 r : removed) EXPECT_NE(h.id, r);
    }
  }
}

TEST(HnswConcurrentTest, CompactedCopyRunsAlongsideSearches) {
  // CompactedCopy reads only immutable vectors + atomic tombstones, so it
  // may overlap searches (not mutators). Readers hammer the source index
  // while a copy is taken; the copy must contain exactly the live nodes.
  HnswConfig hc;
  hc.dim = 8;
  HnswIndex index(hc);
  const size_t n = 500;
  const auto base = RandomVectors(n, hc.dim, 33);
  for (size_t i = 0; i < n; ++i) index.Add(&base[i * hc.dim]);
  for (u32 id = 0; id < n; id += 5) ASSERT_TRUE(index.Remove(id).ok());

  const auto queries = RandomVectors(16, hc.dim, 55);
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      size_t round = 0;
      while (!done.load(std::memory_order_acquire)) {
        index.Search(&queries[(round++ % 16) * hc.dim], 10);
      }
    });
  }
  std::vector<u32> new_to_old;
  HnswIndex compacted = index.CompactedCopy(&new_to_old);
  done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  EXPECT_EQ(compacted.size(), n - n / 5);
  EXPECT_EQ(compacted.deleted_count(), 0u);
  ASSERT_EQ(new_to_old.size(), compacted.size());
  for (const u32 old_id : new_to_old) {
    EXPECT_FALSE(index.IsDeleted(old_id));
  }
}

TEST(HnswConcurrentTest, ConcurrentSearchOnTinyIndex) {
  HnswConfig hc;
  hc.dim = 4;
  HnswIndex index(hc);
  const auto base = RandomVectors(3, hc.dim, 5);
  for (size_t i = 0; i < 3; ++i) index.Add(&base[i * hc.dim]);

  const auto queries = RandomVectors(64, hc.dim, 17);
  ThreadPool pool(8);
  pool.ParallelFor(64, [&](size_t q) {
    auto hits = index.Search(&queries[q * hc.dim], 2);
    ASSERT_EQ(hits.size(), 2u);
  });
}

}  // namespace
}  // namespace ann
}  // namespace deepjoin
