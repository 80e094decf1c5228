#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "core/deepjoin.h"
#include "join/joinability.h"
#include "lake/generator.h"
#include "serve/query_service.h"
#include "spans.h"
#include "stats.h"
#include "util/hash.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using namespace deepjoin;
using Clock = std::chrono::steady_clock;

// ---- Sizes and fixed load settings (the same for every seed) ----

constexpr size_t kK = 10;
constexpr size_t kQueries = 1024;     // query columns per run
constexpr size_t kWarmQueries = 256;  // searched once before timing
constexpr size_t kSample = 300;       // fine-tuning sample
constexpr int kSetupReps = 3;         // setup_s is the median of these
constexpr size_t kPlmRepo = 2000;     // query / serve repository
constexpr size_t kChurnRepo = 500;    // churn: live size, held steady
// Independently generated Webtable lakes per seed (query, serve, scan). A
// single generated lake's few popular domains set most of its column
// sizes, so one lake per seed moved query_p50_ms and peak_rss_mb by 14-19%
// (IQR/median) from seed to seed; a union of four brought that under 8%.
// churn keeps one lake: its 500 live columns split four ways left too few
// joinable partners per query (P@10 ~0.33, against a floor of 0.30).
constexpr size_t kSubLakes = 4;
// churn: the pool of unseen columns to add lasts --seconds at this many
// writer steps per second, 3x the seed code's ~400/s (4-core x86-64 host).
// It is held in memory during the run, so it is not sized larger. A writer
// that uses it up (a much faster write path, or a reader that runs on for
// tail samples) stops and fails a check; it never re-adds a column.
constexpr double kChurnMaxStepsPerSec = 1200;
constexpr size_t kScanRepo = 20000;   // scan: flat corpus rows
constexpr int kScanDim = 256;         // scan: fastText dimension
constexpr int kPlmFtDim = 24;         // PLM: subword-vector dimension
constexpr int kFineTuneSteps = 6;
constexpr int kFineTuneBatch = 16;
constexpr size_t kPublishEvery = 256;  // churn: mutations per publish
constexpr size_t kProbeQueries = 1024;  // churn: recall / restart probes
static_assert(kProbeQueries <= kQueries, "probes are a prefix of the queries");
constexpr int kSlices = 10;  // phases alternate in this many rounds
// Open-loop offered rates (requests/s), fixed across seeds and commits:
// about half of each workload's saturated throughput on the seed code
// (4-core x86-64 host, AVX2 kernels).
constexpr double kServeRate = 320.0;
constexpr double kScanRate = 120.0;
// Quality floors, set below the seed code's values on every seed tried.
constexpr double kRecallFloor = 0.90;
constexpr double kPlmPrecisionFloor = 0.30;
constexpr double kScanPrecisionFloor = 0.20;

double Sec(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double Ms(Clock::time_point a, Clock::time_point b) { return Sec(a, b) * 1e3; }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

// ---- Program-exported counters (read, never added to) ----

class MetricsView {
 public:
  MetricsView() : snap_(metrics::MetricsRegistry::Global().Snapshot()) {}
  /// Counter or gauge value; 0 when the program never registered it.
  double Value(const std::string& name) const {
    for (const auto& c : snap_.counters) {
      if (c.name == name) return static_cast<double>(c.value);
    }
    for (const auto& g : snap_.gauges) {
      if (g.name == name) return g.value;
    }
    return 0;
  }
  double HistSum(const std::string& name) const {
    const auto* h = Hist(name);
    return h != nullptr ? h->sum : 0;
  }
  double HistCount(const std::string& name) const {
    const auto* h = Hist(name);
    return h != nullptr ? static_cast<double>(h->count) : 0;
  }

 private:
  const metrics::MetricsSnapshot::HistogramSample* Hist(
      const std::string& name) const {
    for (const auto& h : snap_.histograms) {
      if (h.name == name) return &h;
    }
    return nullptr;
  }
  metrics::MetricsSnapshot snap_;
};

/// Sum and count a histogram gained between two views.
struct HistDelta {
  double sum = 0, count = 0;
  void Add(const MetricsView& a, const MetricsView& b,
           const std::string& name) {
    sum += b.HistSum(name) - a.HistSum(name);
    count += b.HistCount(name) - a.HistCount(name);
  }
  double mean() const { return count > 0 ? sum / count : 0; }
};

// ---- Inputs (generated from the seed; the program sees only these) ----

struct Inputs {
  lake::Repository repo;
  std::vector<lake::Column> pool;  // churn: columns never indexed at set-up
  std::vector<lake::Column> sample;
  std::vector<lake::Column> queries;
  std::vector<std::vector<std::string>> lexicon;
  std::unique_ptr<join::TokenizedRepository> tok;
};

/// Round-robin merge of per-sub-lake lists, so that any prefix (the churn
/// writer's pool, a query cycle cut short) draws evenly from every part.
std::vector<lake::Column> Interleave(
    std::vector<std::vector<lake::Column>> parts) {
  std::vector<lake::Column> out;
  for (size_t i = 0;; ++i) {
    bool any = false;
    for (auto& part : parts) {
      if (i < part.size()) {
        out.push_back(std::move(part[i]));
        any = true;
      }
    }
    if (!any) return out;
  }
}

/// A seed's lake is `sub_lakes` Webtable lakes, each generated from its
/// own seed derived from `seed`, with every list interleaved across them.
Inputs MakeInputs(uint64_t seed, size_t sub_lakes, size_t repo_n,
                  size_t pool_n, bool need_sample) {
  Inputs in;
  std::vector<std::vector<lake::Column>> repo(sub_lakes), pool(sub_lakes),
      sample(sub_lakes), queries(sub_lakes);
  for (size_t j = 0; j < sub_lakes; ++j) {
    const auto share = [&](size_t n) {
      return n * (j + 1) / sub_lakes - n * j / sub_lakes;
    };
    lake::LakeGenerator gen(lake::LakeConfig::Webtable(SeededHash(j, seed)));
    const lake::Repository all =
        gen.GenerateRepository(share(repo_n) + share(pool_n));
    for (u32 i = 0; i < all.size(); ++i) {
      (i < share(repo_n) ? repo[j] : pool[j]).push_back(all.column(i));
    }
    if (need_sample) sample[j] = gen.GenerateQueries(share(kSample), 0x5A17);
    queries[j] = gen.GenerateQueries(share(kQueries), 0xC0FE);
    for (auto& group : gen.SynonymLexicon()) {
      in.lexicon.push_back(std::move(group));
    }
  }
  for (const auto& col : Interleave(std::move(repo))) in.repo.Add(col);
  in.pool = Interleave(std::move(pool));
  in.sample = Interleave(std::move(sample));
  in.queries = Interleave(std::move(queries));
  for (u32 i = 0; i < in.queries.size(); ++i) in.queries[i].id = i;
  in.tok = std::make_unique<join::TokenizedRepository>(
      join::TokenizedRepository::Build(in.repo));
  return in;
}

// ---- References for the output checks ----

struct Reference {
  explicit Reference(int dim) : table(dim) {}
  EmbeddingTable table;
  std::vector<std::vector<float>> qvec;
  std::vector<std::vector<EmbeddingTable::Hit>> exact;
};

/// Exact top-k over the embeddings the index stores: the encoder is
/// deterministic, so re-encoding a column reproduces its stored vector.
/// A flat index exposes its stored rows, which are used directly.
std::unique_ptr<Reference> BuildReference(
    core::ColumnEncoder* encoder,
    const std::vector<std::pair<u32, const lake::Column*>>& columns,
    const std::vector<lake::Column>& queries, ThreadPool* pool,
    const ann::FlatIndex* flat = nullptr) {
  const int dim = encoder->dim();
  auto ref = std::make_unique<Reference>(dim);
  std::vector<float> rows(columns.size() * static_cast<size_t>(dim));
  pool->ParallelFor(columns.size(), [&](size_t i) {
    float* row = rows.data() + i * static_cast<size_t>(dim);
    if (flat != nullptr) {
      const float* stored = flat->vector(columns[i].first);
      std::copy(stored, stored + dim, row);
    } else {
      encoder->EncodeInto(*columns[i].second, row);
    }
  });
  for (size_t i = 0; i < columns.size(); ++i) {
    ref->table.Add(columns[i].first,
                   rows.data() + i * static_cast<size_t>(dim));
  }
  ref->qvec.assign(queries.size(), std::vector<float>(dim));
  ref->exact.resize(queries.size());
  pool->ParallelFor(queries.size(), [&](size_t q) {
    encoder->EncodeInto(queries[q], ref->qvec[q].data());
    ref->exact[q] = ref->table.ExactTopK(ref->qvec[q].data(), kK);
  });
  return ref;
}

std::vector<std::pair<u32, const lake::Column*>> IdentityColumns(
    const lake::Repository& repo) {
  std::vector<std::pair<u32, const lake::Column*>> out;
  for (u32 i = 0; i < repo.size(); ++i) out.push_back({i, &repo.column(i)});
  return out;
}

// ---- Results of one phase, kept for checking after the run ----

struct CallLog {
  std::vector<uint32_t> query;    // query index per call
  std::vector<u32> ids;           // result ids, flat
  std::vector<size_t> offset{0};  // call i's ids: [offset[i], offset[i+1])
  std::vector<size_t> watermark;  // churn: acknowledged removals at start

  void Add(uint32_t q, const std::vector<u32>& result, size_t wm = 0) {
    query.push_back(q);
    ids.insert(ids.end(), result.begin(), result.end());
    offset.push_back(ids.size());
    watermark.push_back(wm);
  }
  void Append(const CallLog& other) {
    for (size_t i = 0; i < other.size(); ++i) {
      Add(other.query[i], other.Ids(i), other.watermark[i]);
    }
  }
  size_t size() const { return query.size(); }
  std::vector<u32> Ids(size_t i) const {
    return {ids.begin() + static_cast<long>(offset[i]),
            ids.begin() + static_cast<long>(offset[i + 1])};
  }
  void Reserve(size_t calls) {
    query.reserve(calls);
    ids.reserve(calls * kK);
    offset.reserve(calls + 1);
    watermark.reserve(calls);
  }
};

struct Quality {
  double recall_sum = 0;
  size_t results = 0;
  double recall() const {
    return results > 0 ? recall_sum / static_cast<double>(results) : 0;
  }
};

/// Checks every call of `calls`: k distinct ids the reference holds, no
/// id removed before the call began (when `removed_at` is given), and
/// either recall by distance (tallied into `quality`) or, for an exact
/// backend, equality with the exact top-k.
void CheckCalls(const CallLog& calls, const std::string& phase,
                const Reference& ref, bool exact_backend,
                const std::function<bool(u32)>& valid,
                const std::unordered_map<u32, size_t>* removed_at,
                CheckLog* checks, Quality* quality) {
  for (size_t i = 0; i < calls.size(); ++i) {
    const std::vector<u32> ids = calls.Ids(i);
    const uint32_t q = calls.query[i];
    const std::string where = phase + " call " + std::to_string(i);
    checks->ExpectEmpty(CheckIdList(ids, kK, valid), where);
    if (removed_at != nullptr) {
      checks->ExpectEmpty(
          CheckNoRemoved(ids, *removed_at, calls.watermark[i]), where);
    }
    if (exact_backend) {
      checks->ExpectEmpty(CheckEqualsExact(ref.table, ref.qvec[q].data(), ids,
                                           ref.exact[q]),
                          where);
    }
    quality->recall_sum +=
        RecallByDistance(ref.table, ref.qvec[q].data(), ids, ref.exact[q]);
    ++quality->results;
  }
}

/// Tie-aware P@10 of the first result of each distinct query in `calls`
/// against exact equi-joinability over `tok`; `position` maps a result id
/// to its column in `tok` (-1: not there).
double PrecisionOverQueries(const CallLog& calls,
                            const std::vector<lake::Column>& queries,
                            const join::TokenizedRepository& tok,
                            const std::function<long(u32)>& position,
                            size_t max_queries) {
  std::unordered_set<uint32_t> seen;
  double sum = 0;
  size_t n = 0;
  for (size_t i = 0; i < calls.size() && n < max_queries; ++i) {
    const uint32_t q = calls.query[i];
    if (!seen.insert(q).second) continue;
    const join::TokenSet qs = tok.EncodeQuery(queries[q]);
    const auto exact = join::ExactEquiTopK(tok, qs, kK);
    sum += PrecisionAtK(calls.Ids(i), exact, kK, [&](u32 id) {
      const long p = position(id);
      return p < 0 ? 0.0
                   : join::EquiJoinability(
                         qs, tok.columns()[static_cast<size_t>(p)]);
    });
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0;
}

// ---- Closed-loop query phases ----

struct LoopResult {
  std::vector<double> latency_ms;
  CallLog calls;
};

using SearchFn =
    std::function<void(const lake::Column&, std::vector<u32>* ids)>;
using WatermarkFn = std::function<size_t()>;

/// How long one slice of a phase runs: `seconds`, then on while the
/// phase as a whole has fewer than `min_samples` (at most `cap` seconds).
struct Budget {
  double seconds = 0;
  size_t min_samples = 0;
  double cap = 0;
};

/// A phase's slice; the last one runs on (up to the run length) until the
/// phase has enough samples for a supported p99.
Budget SliceBudget(double seconds, bool last, double run_seconds) {
  if (!last) return {seconds, 0, 0};
  return {seconds, MinSamplesForTail(0.99), seconds + run_seconds};
}

bool KeepGoing(Clock::time_point start, const Budget& b, size_t samples) {
  const double t = Sec(start, Clock::now());
  if (t < b.seconds) return true;
  return samples < b.min_samples && t < b.cap;
}

/// Appends to `out`; the query cycle continues where the last slice ended.
void RunClosedLoop(const std::vector<lake::Column>& queries, const Budget& b,
                   const SearchFn& search, const WatermarkFn& watermark,
                   LoopResult* out) {
  out->latency_ms.reserve(1 << 16);
  out->calls.Reserve(1 << 16);
  std::vector<u32> ids;
  const auto start = Clock::now();
  while (KeepGoing(start, b, out->latency_ms.size())) {
    const uint32_t q =
        static_cast<uint32_t>(out->calls.size() % queries.size());
    const size_t wm = watermark ? watermark() : 0;
    const auto t0 = Clock::now();
    search(queries[q], &ids);
    const auto t1 = Clock::now();
    out->latency_ms.push_back(Ms(t0, t1));
    out->calls.Add(q, ids, wm);
  }
}

/// What a traced query decomposes into: the real SearchInto call, and the
/// same work as separate calls into each layer's public API.
struct QueryPath {
  core::EmbeddingSearcher* searcher = nullptr;
  core::PlmColumnEncoder* plm = nullptr;   // PLM path
  core::ColumnEncoder* encoder = nullptr;  // any encoder (fastText path)
  core::TransformConfig transform;
};

struct TraceScratch {
  core::EmbeddingSearcher::SearchResult result;
  core::TransformScratch transform;
  std::string text;
  std::vector<u32> tok_ids;
  std::vector<float> vec;
  std::vector<ann::Neighbor> hits;
  std::vector<u32> mapped;
  double tokens = 0;  // sum of sequence lengths seen
  double mflop = 0;   // sum of forward MFLOP
  size_t traced = 0;
};

/// Floating-point operations (two per multiply-add) of one transformer
/// forward over L tokens.
double ForwardMflop(const nn::TransformerConfig& c, size_t tokens) {
  const double L = static_cast<double>(
      std::min<size_t>(tokens, static_cast<size_t>(c.max_seq_len)));
  const double d = c.d_model, f = c.d_ff;
  const double per_layer = 2 * L * d * 3 * d   // Q, K, V projections
                           + 2 * L * L * d     // scores
                           + 2 * L * L * d     // weights x V
                           + 2 * L * d * d     // output projection
                           + 2 * 2 * L * d * f;  // feed-forward
  return per_layer * c.num_layers / 1e6;
}

void TracedQuery(const QueryPath& p, const lake::Column& q, uint32_t r,
                 SpanLog* log, TraceScratch* s, std::vector<u32>* ids) {
  const core::SearchOptions opts{.k = kK, .collect_stats = false};
  auto real = [&] {
    const int sp = log->Begin("core.search", SpanLog::kNoParent, r);
    p.searcher->SearchInto(q, opts, &s->result);
    log->End(sp);
    *ids = s->result.ids;
  };
  auto stages = [&] {
    const int root = log->Begin("query.stages", SpanLog::kNoParent, r);
    const int pin = log->Begin("core.snapshot_pin", root, r);
    const auto snap = p.searcher->PinSnapshot();
    log->End(pin);
    s->vec.resize(static_cast<size_t>(p.encoder->dim()));
    const int enc = log->Begin("core.encode", root, r);
    if (p.plm != nullptr) {
      const int c = log->Begin("text.column_to_ids", enc, r);
      p.plm->ColumnToIdsInto(q, &s->tok_ids);
      log->End(c);
      const int f = log->Begin("nn.forward", enc, r);
      p.plm->transformer().EncodeToVector(s->tok_ids, s->vec.data());
      log->End(f);
    } else {
      const int f = log->Begin("core.fasttext_encode", enc, r);
      p.encoder->EncodeInto(q, s->vec.data());
      log->End(f);
    }
    log->End(enc);
    const int a = log->Begin("ann.search", root, r);
    snap->index->SearchInto(s->vec.data(), kK, ann::AnnSearchParams{},
                            &s->hits);
    log->End(a);
    const int m = log->Begin("core.id_map", root, r);
    s->mapped.clear();
    const core::IdMap* map = snap->to_column.get();
    for (const auto& h : s->hits) {
      s->mapped.push_back(map != nullptr ? map->At(h.id) : h.id);
    }
    log->End(m);
    log->End(root);
  };
  // Alternate the order so neither side always runs on warm caches.
  if (r % 2 == 0) {
    real();
    stages();
  } else {
    stages();
    real();
  }
  const int t = log->Begin("core.transform", SpanLog::kNoParent, r);
  core::TransformColumnInto(q, p.transform, &s->transform, &s->text);
  log->End(t);
  if (p.plm != nullptr) {
    s->tokens += static_cast<double>(s->tok_ids.size());
    s->mflop += ForwardMflop(p.plm->transformer().config(), s->tok_ids.size());
  }
  ++s->traced;
}

void RunTracedLoop(const QueryPath& path,
                   const std::vector<lake::Column>& queries, const Budget& b,
                   const WatermarkFn& watermark, SpanLog* log,
                   TraceScratch* scratch, LoopResult* out) {
  out->latency_ms.reserve(1 << 15);
  out->calls.Reserve(1 << 15);
  std::vector<u32> ids;
  const auto start = Clock::now();
  while (KeepGoing(start, b, out->latency_ms.size())) {
    const uint32_t i = static_cast<uint32_t>(out->calls.size());
    const uint32_t q = i % static_cast<uint32_t>(queries.size());
    const size_t wm = watermark ? watermark() : 0;
    const auto t0 = Clock::now();
    TracedQuery(path, queries[q], i, log, scratch, &ids);
    out->latency_ms.push_back(Ms(t0, Clock::now()));
    out->calls.Add(q, ids, wm);
  }
}

/// Per-query ANN distance evaluations, read from each query's own
/// trace::QueryStats counters (immune to a concurrent writer's inserts).
double DistEvalsPerQuery(core::EmbeddingSearcher* searcher,
                         const std::vector<lake::Column>& queries) {
  double sum = 0;
  const size_t n = std::min<size_t>(queries.size(), 64);
  for (size_t i = 0; i < n; ++i) {
    const auto r = searcher->Search(queries[i], {.k = kK});
    sum += static_cast<double>(r.stats.CounterValue("hnsw.dist_evals") +
                               r.stats.CounterValue("flat.dist_evals"));
  }
  return sum / static_cast<double>(n);
}

// ---- Set-up ----

struct SetupRecord {
  std::vector<double> setup_s;
  std::vector<double> build_cols_per_s;
  core::BuildStats build;  // last repetition
  double train_step_ms = 0;
};

struct PlmModel {
  std::unique_ptr<FastTextEmbedder> ft;
  std::unique_ptr<core::DeepJoin> dj;
};

/// Pre-trains the subword vectors and fine-tunes the MPNetSim PLM.
PlmModel TrainPlm(const Inputs& in, uint64_t seed) {
  PlmModel m;
  FastTextConfig fc;
  fc.dim = kPlmFtDim;
  m.ft = std::make_unique<FastTextEmbedder>(fc);
  m.ft->TrainSynonyms(in.lexicon, 0.8, 2);
  core::DeepJoinConfig cfg;
  cfg.plm.kind = core::PlmKind::kMPNetSim;
  cfg.plm.transform.dict = &in.tok->dict();
  cfg.plm.seed = seed ^ 0x1234;
  cfg.finetune.batch_size = kFineTuneBatch;
  cfg.finetune.max_steps = kFineTuneSteps;
  cfg.finetune.seed = seed ^ 0x99;
  cfg.training.seed = seed ^ 0x77;
  m.dj = core::DeepJoin::Train(in.sample, *m.ft, cfg);
  return m;
}

double TrainStepMs(const core::DeepJoin& dj) {
  const auto& ts = dj.train_stats();
  return ts.steps > 0 ? ts.seconds * 1e3 / static_cast<double>(ts.steps) : 0;
}

/// Times BuildIndex and records its throughput; false on failure.
bool TimedBuild(core::EmbeddingSearcher* searcher, const lake::Repository& repo,
                ThreadPool* pool, SetupRecord* rec) {
  core::BuildStats stats;
  const auto t0 = Clock::now();
  const Status st = searcher->BuildIndex(repo, pool, &stats);
  const double s = Sec(t0, Clock::now());
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: BuildIndex failed: %s\n",
                 st.ToString().c_str());
    return false;
  }
  rec->build_cols_per_s.push_back(static_cast<double>(repo.size()) / s);
  rec->build = stats;
  return true;
}

// ---- Open-loop and saturation serving phases ----

struct OpenReq {
  serve::Request req;
  Clock::time_point due{}, submit{}, done{};
  std::atomic<int>* completed = nullptr;
  uint32_t q = 0;
  bool admitted = false;
};

void OnOpenDone(serve::Request* r) {
  auto* o = static_cast<OpenReq*>(r->ctx);
  o->done = Clock::now();
  o->completed->fetch_add(1, std::memory_order_release);
}

struct ServeResult {
  PhaseTally open{"open_loop"};
  PhaseTally sat{"saturation"};
  std::vector<double> latency_ms;  // from due time, kMissing when missing
  std::vector<double> lag_ms;
  std::vector<double> queue_ms, exec_ms;
  double pool_depth_mean = 0;
  double sat_qps = 0;
  CallLog calls;  // every completed request, both phases
  double batch_size_mean = 0;
  double pool_task_ms = 0;
};

/// A searcher behind one QueryService for the whole run, driven in slices:
/// open-loop slices replay consecutive windows of one Poisson schedule
/// (each slice waits for its own requests to complete), and saturation
/// slices run `clients` closed-loop clients.
class ServeSession {
 public:
  ServeSession(core::EmbeddingSearcher* searcher, ThreadPool* pool,
               const std::vector<lake::Column>& queries, double rate,
               double open_s, int slices, uint64_t seed, SpanLog* log)
      : queries_(queries), log_(log), service_(searcher, Config(pool)) {
    // The schedule covers `open_s`, and more if needed for a supported
    // tail (at most three times as long).
    Rng rng(seed ^ 0x0BE11);
    const size_t min_n = MinSamplesForTail(0.99);
    double t = rng.Exponential(rate);
    for (; t < open_s || (offsets_.size() < min_n && t < 3 * open_s);
         t += rng.Exponential(rate)) {
      offsets_.push_back(t);
    }
    slice_s_ = std::max(t, open_s) / slices;
    reqs_ = std::make_unique<OpenReq[]>(offsets_.size());
    depth_ = metrics::MetricsRegistry::Global().GetGauge(
        "dj_threadpool_queue_depth");
    service_.Start();
  }

  /// Submits the arrivals due in virtual window [j, j+1) * slice length,
  /// each at its due time, and waits until every admitted one completed.
  void OpenSlice(int j) {
    const double lo = j * slice_s_, hi = (j + 1) * slice_s_;
    const auto start = Clock::now();
    int admitted = 0;
    std::atomic<int> completed{0};
    const MetricsView before;
    for (; next_ < offsets_.size() && offsets_[next_] < hi; ++next_) {
      OpenReq& o = reqs_[next_];
      o.due = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(offsets_[next_] - lo));
      std::this_thread::sleep_until(o.due);
      o.q = static_cast<uint32_t>(next_ % queries_.size());
      o.completed = &completed;
      o.req.query = &queries_[o.q];
      o.req.options = {.k = kK, .collect_stats = false};
      o.req.done = &OnOpenDone;
      o.req.ctx = &o;
      depth_sum_ += depth_->value();
      o.submit = Clock::now();
      o.admitted = service_.Submit(&o.req).ok();
      if (o.admitted) ++admitted;
    }
    while (completed.load(std::memory_order_acquire) < admitted) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    const MetricsView after;
    batch_size_.Add(before, after, "dj_serve_batch_size");
    pool_task_.Add(before, after, "dj_threadpool_task_ms");
  }

  /// `clients` closed-loop clients for `seconds`.
  void SatSlice(double seconds, unsigned clients) {
    std::vector<CallLog> logs(clients);
    std::vector<PhaseTally> tallies(clients);
    std::vector<std::thread> threads;
    const MetricsView before;
    const auto start = Clock::now();
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    for (unsigned c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        serve::Request req;
        logs[c].Reserve(1 << 12);
        for (uint32_t i = c * 37 + sat_round_ * 101; Clock::now() < end; ++i) {
          const uint32_t q = i % static_cast<uint32_t>(queries_.size());
          req.query = &queries_[q];
          req.options = {.k = kK, .collect_stats = false};
          req.deadline = serve::Deadline::Infinite();
          const Status st = service_.Query(&req);
          ++tallies[c].attempted;
          if (st.ok()) {
            ++tallies[c].succeeded;
            logs[c].Add(q, req.result.ids);
          } else if (st.code() == StatusCode::kResourceExhausted) {
            ++tallies[c].refused;
          } else if (st.code() == StatusCode::kDeadlineExceeded) {
            ++tallies[c].expired;
          } else {
            ++tallies[c].failed;
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    sat_elapsed_ += Sec(start, Clock::now());
    ++sat_round_;
    pool_task_.Add(before, MetricsView(), "dj_threadpool_task_ms");
    for (unsigned c = 0; c < clients; ++c) {
      out_.sat.attempted += tallies[c].attempted;
      out_.sat.succeeded += tallies[c].succeeded;
      out_.sat.refused += tallies[c].refused;
      out_.sat.expired += tallies[c].expired;
      out_.sat.failed += tallies[c].failed;
      sat_calls_.Append(logs[c]);
    }
  }

  /// Stops the service and summarizes every slice.
  ServeResult Finish() {
    service_.Stop();
    ServeResult& out = out_;
    std::vector<OpenLoopSample> samples;
    for (size_t i = 0; i < next_; ++i) {
      OpenReq& o = reqs_[i];
      OpenLoopSample s;
      // Each slice has its own clock origin; latency and lag are
      // differences within one slice, so a shared origin is not needed.
      s.due_s = 0;
      s.submit_s = Sec(o.due, o.submit);
      ++out.open.attempted;
      if (!o.admitted) {
        ++out.open.refused;
      } else if (o.req.status.ok()) {
        ++out.open.succeeded;
        s.done_s = Sec(o.due, o.done);
        out.queue_ms.push_back(o.req.queue_ms);
        out.exec_ms.push_back(o.req.exec_ms);
        out.calls.Add(o.q, o.req.result.ids);
        const int sp = log_->Record("serve.request", o.due, o.done,
                                    SpanLog::kNoParent,
                                    static_cast<uint32_t>(i));
        log_->Record("serve.submit_wait", o.due, o.submit, sp,
                     static_cast<uint32_t>(i));
      } else if (o.req.status.code() == StatusCode::kDeadlineExceeded) {
        ++out.open.expired;
      } else {
        ++out.open.failed;
      }
      samples.push_back(s);
    }
    const OpenLoopSummary sum = SummarizeOpenLoop(samples);
    out.latency_ms = sum.latency_ms;
    out.lag_ms = sum.lag_ms;
    out.pool_depth_mean =
        next_ > 0 ? depth_sum_ / static_cast<double>(next_) : 0;
    out.batch_size_mean = batch_size_.mean();
    out.pool_task_ms = pool_task_.mean();
    out.sat_qps = sat_elapsed_ > 0
                      ? static_cast<double>(out.sat.succeeded) / sat_elapsed_
                      : 0;
    out.calls.Append(sat_calls_);
    return std::move(out_);
  }

 private:
  static serve::QueryServiceConfig Config(ThreadPool* pool) {
    serve::QueryServiceConfig qc;
    qc.encode_pool = pool;
    return qc;
  }

  const std::vector<lake::Column>& queries_;
  SpanLog* log_;
  serve::QueryService service_;
  std::vector<double> offsets_;
  double slice_s_ = 0;
  std::unique_ptr<OpenReq[]> reqs_;
  size_t next_ = 0;
  const metrics::Gauge* depth_ = nullptr;
  double depth_sum_ = 0;
  HistDelta batch_size_, pool_task_;
  double sat_elapsed_ = 0;
  uint32_t sat_round_ = 0;
  CallLog sat_calls_;
  ServeResult out_;
};

// ---- Metric assembly ----

/// Records one metric; a non-finite value (a missing tail) reads 1e9.
void SetMetric(RunReport* r, const std::string& name, double value,
               const std::string& unit) {
  r->metrics[name] = {std::isfinite(value) ? value : 1e9, unit};
}

/// A latency phase: its p50 (and `tail_name`, the p95, when given) as
/// metrics, plus p90/p95/p99/p99.9 and the sample count in `info`. The
/// phase must support a p99 (at least 10 samples beyond it) and miss no
/// more than 1% of its requests.
void SetLatency(RunReport* report, const char* p50_name,
                const char* tail_name, const std::vector<double>& samples,
                const std::string& phase) {
  SetMetric(report, p50_name, Percentile(samples, 0.5), "ms");
  if (tail_name != nullptr) {
    SetMetric(report, tail_name, Percentile(samples, 0.95), "ms");
  }
  report->info[phase + ".samples"] = static_cast<double>(samples.size());
  for (double p : {0.9, 0.95, 0.99, 0.999}) {
    if (SamplesBeyond(samples.size(), p) >= 10) {
      report->info[phase + ".p" + std::to_string(p).substr(2, 3) + "_ms"] =
          Percentile(samples, p);
    }
  }
  report->checks.Expect(SamplesBeyond(samples.size(), 0.99) >= 10,
                        phase + ": fewer than 10 samples beyond p99");
  report->checks.Expect(std::isfinite(Percentile(samples, 0.99)),
                        phase + ": more than 1% of requests missing");
}

/// Every per-layer metric, zero unless the workload's path sets it.
void InitLayerMetrics(RunReport* m) {
  for (const char* n :
       {"core.transform_us", "text.tokenize_us", "nn.forward_us",
        "ann.search_us", "ann.insert_us", "core.search_us",
        "core.snapshot_pin_us", "core.id_map_us",
        "core.fasttext_encode_us"}) {
    SetMetric(m, n, 0, "us");
  }
  for (const char* n :
       {"core.train_step_ms", "core.add_column_ms", "core.remove_column_ms",
        "core.publish_ms", "core.compact_ms", "serve.queue_wait_p50_ms",
        "serve.queue_wait_p99_ms", "serve.exec_ms", "serve.gen_lag_ms",
        "util.pool_task_ms"}) {
    SetMetric(m, n, 0, "ms");
  }
  for (const char* n :
       {"text.tokens_per_col", "ann.dist_evals_per_query", "ann.short_results",
        "core.compactions",
        "util.env.fsyncs_per_mutation", "serve.batch_size_mean",
        "serve.rejected", "serve.expired", "util.pool_queue_depth"}) {
    SetMetric(m, n, 0, "count");
  }
  SetMetric(m, "nn.forward_mflop", 0, "Mflop");
  SetMetric(m, "core.build_encode_s", 0, "s");
  SetMetric(m, "core.build_index_s", 0, "s");
  SetMetric(m, "core.stage_gap_pct", 0, "%");
  SetMetric(m, "trace.overhead_pct", 0, "%");
  SetMetric(m, "core.wal_syncs_per_record", 0, "ratio");
  SetMetric(m, "util.env.bytes_written_per_mutation", 0, "bytes");
}

/// Layer metrics from a traced closed-loop phase.
void SetQueryLayers(RunReport* m, const SpanLog& log,
                    const TraceScratch& s, double untraced_p50_ms) {
  auto g = log.GroupByName();
  auto med = [&](const char* name, bool self) {
    const auto it = g.find(name);
    if (it == g.end()) return 0.0;
    return Median(self ? it->second.self_us : it->second.total_us);
  };
  auto total = [&](const char* name) {
    const auto it = g.find(name);
    double sum = 0;
    if (it != g.end()) {
      for (double v : it->second.total_us) sum += v;
    }
    return sum;
  };
  const double search_us = med("core.search", false);
  SetMetric(m, "core.search_us", search_us, "us");
  SetMetric(m, "core.snapshot_pin_us", med("core.snapshot_pin", true), "us");
  SetMetric(m, "core.id_map_us", med("core.id_map", true), "us");
  SetMetric(m, "ann.search_us", med("ann.search", true), "us");
  SetMetric(m, "core.transform_us", med("core.transform", true), "us");
  if (g.count("text.column_to_ids") != 0) {
    SetMetric(m, "text.tokenize_us",
              med("text.column_to_ids", true) - med("core.transform", true),
              "us");
    SetMetric(m, "nn.forward_us", med("nn.forward", true), "us");
  }
  if (g.count("core.fasttext_encode") != 0) {
    SetMetric(m, "core.fasttext_encode_us", med("core.fasttext_encode", true),
              "us");
  }
  if (s.traced > 0 && s.tokens > 0) {
    SetMetric(m, "text.tokens_per_col",
              s.tokens / static_cast<double>(s.traced),
              "count");
    SetMetric(m, "nn.forward_mflop", s.mflop / static_cast<double>(s.traced),
              "Mflop");
  }
  // Σ stage self times (= the stages root's span) against the real call.
  const double real = total("core.search");
  const double staged = total("query.stages");
  const double gap = real > 0 ? std::fabs(real - staged) / real * 100 : 0;
  SetMetric(m, "core.stage_gap_pct", gap, "%");
  m->info["trace.stage_sum_us"] = staged;
  m->info["trace.search_sum_us"] = real;
  const double overhead =
      untraced_p50_ms > 0
          ? (search_us / 1e3 - untraced_p50_ms) / untraced_p50_ms * 100
          : 0;
  SetMetric(m, "trace.overhead_pct", overhead, "%");
  m->info["trace.untraced_search_p50_ms"] = untraced_p50_ms;
}

void SetBuildLayers(RunReport* m, const SetupRecord& rec, size_t columns) {
  const double enc_s = rec.build.trace.SpanMs("searcher.build_encode") / 1e3;
  const double idx_s = rec.build.trace.SpanMs("searcher.build_index") / 1e3;
  SetMetric(m, "core.build_encode_s", enc_s, "s");
  SetMetric(m, "core.build_index_s", idx_s, "s");
  if (columns > 0) {
    SetMetric(m, "ann.insert_us",
              idx_s * 1e6 / static_cast<double>(columns), "us");
  }
  SetMetric(m, "core.train_step_ms", rec.train_step_ms, "ms");
}

void SetServeLayers(RunReport* m, const ServeResult& s) {
  SetMetric(m, "serve.queue_wait_p50_ms", Percentile(s.queue_ms, 0.5), "ms");
  SetMetric(m, "serve.queue_wait_p99_ms", Percentile(s.queue_ms, 0.99), "ms");
  SetMetric(m, "serve.exec_ms", Percentile(s.exec_ms, 0.5), "ms");
  SetMetric(m, "serve.batch_size_mean", s.batch_size_mean, "count");
  SetMetric(m, "serve.rejected",
            static_cast<double>(s.open.refused + s.sat.refused), "count");
  SetMetric(m, "serve.expired",
            static_cast<double>(s.open.expired + s.sat.expired), "count");
  SetMetric(m, "serve.gen_lag_ms", Percentile(s.lag_ms, 0.99), "ms");
  SetMetric(m, "util.pool_task_ms", s.pool_task_ms, "ms");
  SetMetric(m, "util.pool_queue_depth", s.pool_depth_mean, "count");
}

/// One slice of a closed-loop phase, traced or not. Untraced runs time
/// `search`; traced runs spend a quarter of the slice timing an untraced
/// SearchInto baseline (`base`, for the overhead figure) and the rest
/// decomposing every query into per-layer spans (`out`).
void RunQueryPhase(const RunOptions& o, const QueryPath& path,
                   const std::vector<lake::Column>& queries, const Budget& b,
                   const SearchFn& search, const WatermarkFn& watermark,
                   SpanLog* log, TraceScratch* scratch, LoopResult* base,
                   LoopResult* out) {
  if (!o.trace) {
    RunClosedLoop(queries, b, search, watermark, out);
    return;
  }
  core::EmbeddingSearcher::SearchResult r;
  RunClosedLoop(
      queries, {b.seconds * 0.25, 0, 0},
      [&](const lake::Column& q, std::vector<u32>* ids) {
        path.searcher->SearchInto(q, {.k = kK, .collect_stats = false}, &r);
        *ids = r.ids;
      },
      watermark, base);
  RunTracedLoop(path, queries, {b.seconds * 0.75, b.min_samples, b.cap},
                watermark, log, scratch, out);
}

void WriteSpans(const RunOptions& o,
                const std::vector<std::pair<std::string, const SpanLog*>>&
                    logs) {
  if (!o.trace || o.spans_path.empty()) return;
  std::string body;
  for (const auto& [name, log] : logs) log->AppendJson(name, &body);
  std::FILE* f = std::fopen(o.spans_path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\"spans\": [\n%s\n]}\n", body.c_str());
  std::fclose(f);
}

void Warm(core::EmbeddingSearcher* searcher,
          const std::vector<lake::Column>& queries) {
  core::EmbeddingSearcher::SearchResult r;
  for (size_t i = 0; i < queries.size() && i < kWarmQueries; ++i) {
    searcher->SearchInto(queries[i], {.k = kK, .collect_stats = false}, &r);
  }
}

// ---- Workloads ----

bool RunQuery(const RunOptions& o, RunReport* report) {
  const Inputs in = MakeInputs(o.seed, kSubLakes, kPlmRepo, 0, true);
  ThreadPool pool(o.nproc);
  SetupRecord rec;
  PlmModel model;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    model = PlmModel{};  // tear-down stays out of the timed set-up
    const auto t0 = Clock::now();
    model = TrainPlm(in, o.seed);
    if (!TimedBuild(&model.dj->searcher(), in.repo, &pool, &rec)) return false;
    rec.setup_s.push_back(Sec(t0, Clock::now()));
  }
  rec.train_step_ms = TrainStepMs(*model.dj);
  core::DeepJoin& dj = *model.dj;
  Warm(&dj.searcher(), in.queries);

  const Clock::time_point epoch = Clock::now();
  SpanLog log(o.trace, epoch, 1 << 18);
  TraceScratch scratch;
  QueryPath path{&dj.searcher(), &dj.encoder(), &dj.encoder(),
                 dj.encoder().transform_config()};
  // The two phases alternate in kSlices rounds, so each samples the whole
  // run rather than one stretch of it.
  const SearchFn search = [&](const lake::Column& q, std::vector<u32>* ids) {
    *ids = dj.Search(q, {.k = kK, .collect_stats = false}).ids;
  };
  // SearchBatch phase: batches of nproc queries on an nproc-thread pool.
  std::vector<std::vector<lake::Column>> batches;
  for (size_t b = 0; b * o.nproc < in.queries.size(); ++b) {
    std::vector<lake::Column> batch;
    for (size_t i = 0; i < o.nproc; ++i) {
      batch.push_back(in.queries[(b * o.nproc + i) % in.queries.size()]);
    }
    batches.push_back(std::move(batch));
  }
  LoopResult loop, base;
  std::vector<double> batch_ms;
  CallLog batch_calls;
  batch_calls.Reserve(1 << 16);
  size_t batch_queries = 0;
  double batch_s = 0;
  const MetricsView before_batch;
  for (int round = 0; round < kSlices; ++round) {
    const bool last = round + 1 == kSlices;
    const double q_s = o.seconds * 0.4 / kSlices;
    RunQueryPhase(o, path, in.queries, SliceBudget(q_s, last, o.seconds),
                  search, nullptr, &log, &scratch, &base, &loop);
    const Budget bb = SliceBudget(o.seconds * 0.6 / kSlices, last, o.seconds);
    const auto bstart = Clock::now();
    while (KeepGoing(bstart, bb, batch_ms.size())) {
      const uint32_t i = static_cast<uint32_t>(batch_ms.size());
      const size_t b = i % batches.size();
      const int sp = log.Begin("core.search_batch", SpanLog::kNoParent, i);
      const auto t0 = Clock::now();
      auto res = dj.SearchBatch(batches[b], {.k = kK, .collect_stats = false},
                                &pool);
      batch_ms.push_back(Ms(t0, Clock::now()));
      log.End(sp);
      for (size_t j = 0; j < res.size(); ++j) {
        batch_calls.Add(
            static_cast<uint32_t>((b * o.nproc + j) % in.queries.size()),
            res[j].ids);
      }
      batch_queries += res.size();
    }
    batch_s += Sec(bstart, Clock::now());
  }
  const double untraced_p50 = Percentile(base.latency_ms, 0.5);
  const MetricsView after_batch;
  const double peak_rss_mb = PeakRssMb();  // before any check data exists
  report->phases.push_back({"closed_loop", loop.calls.size(),
                            loop.calls.size(), 0, 0, 0});
  report->phases.push_back(
      {"search_batch", batch_ms.size(), batch_ms.size(), 0, 0, 0});

  // ---- Checks (outside the timed region) ----
  auto ref = BuildReference(&dj.encoder(), IdentityColumns(in.repo),
                            in.queries, &pool);
  const auto valid = [&](u32 id) { return id < in.repo.size(); };
  Quality quality;
  CheckCalls(loop.calls, "closed_loop", *ref, false, valid, nullptr,
             &report->checks, &quality);
  CheckCalls(batch_calls, "search_batch", *ref, false, valid, nullptr,
             &report->checks, &quality);
  const double precision = PrecisionOverQueries(
      loop.calls, in.queries, *in.tok, [](u32 id) { return long{id}; },
      kQueries);
  report->checks.Expect(quality.recall() >= kRecallFloor,
                        "recall_at_10 below floor");
  report->checks.Expect(precision >= kPlmPrecisionFloor,
                        "precision_at_10 below floor");

  if (!o.trace) {
    SetMetric(report, "setup_s", Median(rec.setup_s), "s");
    SetMetric(report, "build_cols_per_s", Median(rec.build_cols_per_s), "1/s");
    SetLatency(report, "query_p50_ms", "query_p95_ms", loop.latency_ms,
               "closed_loop");
    SetLatency(report, "load_p50_ms", nullptr, batch_ms,
               "search_batch");
    SetMetric(report, "load_per_s",
              static_cast<double>(batch_queries) / batch_s, "1/s");
    SetMetric(report, "recall_at_10", quality.recall(), "ratio");
    SetMetric(report, "precision_at_10", precision, "ratio");
    SetMetric(report, "peak_rss_mb", peak_rss_mb, "MB");
  } else {
    InitLayerMetrics(report);
    SetBuildLayers(report, rec, in.repo.size());
    SetQueryLayers(report, log, scratch, untraced_p50);
    SetMetric(report, "load_p95_ms", Percentile(batch_ms, 0.95), "ms");
    SetMetric(report, "ann.dist_evals_per_query",
              DistEvalsPerQuery(&dj.searcher(), in.queries), "count");
    HistDelta pool_task;
    pool_task.Add(before_batch, after_batch, "dj_threadpool_task_ms");
    SetMetric(report, "util.pool_task_ms", pool_task.mean(), "ms");
    WriteSpans(o, {{"client", &log}});
  }
  return true;
}

/// serve and scan: one searcher behind QueryService. `plm` selects the
/// PLM+HNSW searcher; otherwise fastText (dim 256) over a flat backend.
bool RunServed(const RunOptions& o, bool plm, RunReport* report) {
  const Inputs in =
      MakeInputs(o.seed, kSubLakes, plm ? kPlmRepo : kScanRepo, 0, plm);
  ThreadPool pool(o.nproc);
  SetupRecord rec;
  PlmModel model;
  std::unique_ptr<FastTextEmbedder> ft;
  std::unique_ptr<core::FastTextColumnEncoder> ft_encoder;
  std::unique_ptr<core::EmbeddingSearcher> flat;
  const core::TransformConfig ft_transform{};
  // The dim-256 fastText trains on every kSubLakes-th synonym group, as
  // many as one lake has, so its set-up costs what a single lake's did.
  std::vector<std::vector<std::string>> scan_lexicon;
  for (size_t i = 0; !plm && i < in.lexicon.size(); i += kSubLakes) {
    scan_lexicon.push_back(in.lexicon[i]);
  }
  for (int rep = 0; rep < kSetupReps; ++rep) {
    // Tear-down stays out of the timed set-up.
    model = PlmModel{};
    flat.reset();
    ft_encoder.reset();
    const auto t0 = Clock::now();
    if (plm) {
      model = TrainPlm(in, o.seed);
      if (!TimedBuild(&model.dj->searcher(), in.repo, &pool, &rec)) {
        return false;
      }
    } else {
      FastTextConfig fc;
      fc.dim = kScanDim;
      ft = std::make_unique<FastTextEmbedder>(fc);
      ft->TrainSynonyms(scan_lexicon, 0.8, 1);
      ft_encoder =
          std::make_unique<core::FastTextColumnEncoder>(ft.get(), ft_transform);
      core::SearcherConfig sc;
      sc.backend = core::AnnBackend::kFlat;
      flat = std::make_unique<core::EmbeddingSearcher>(ft_encoder.get(), sc);
      if (!TimedBuild(flat.get(), in.repo, &pool, &rec)) return false;
    }
    rec.setup_s.push_back(Sec(t0, Clock::now()));
  }
  if (plm) rec.train_step_ms = TrainStepMs(*model.dj);
  core::EmbeddingSearcher* searcher =
      plm ? &model.dj->searcher() : flat.get();
  core::ColumnEncoder* encoder =
      plm ? static_cast<core::ColumnEncoder*>(&model.dj->encoder())
          : ft_encoder.get();
  Warm(searcher, in.queries);

  const Clock::time_point epoch = Clock::now();
  SpanLog log(o.trace, epoch, 1 << 18);
  TraceScratch scratch;
  QueryPath path{searcher, plm ? &model.dj->encoder() : nullptr, encoder,
                 plm ? model.dj->encoder().transform_config() : ft_transform};
  const SearchFn search = [&](const lake::Column& q, std::vector<u32>* ids) {
    *ids = plm ? model.dj->Search(q, {.k = kK, .collect_stats = false}).ids
               : searcher->Search(q, {.k = kK, .collect_stats = false}).ids;
  };
  // Closed-loop, open-loop and saturation slices alternate in kSlices
  // rounds, so each phase samples the whole run.
  const double rate = plm ? kServeRate : kScanRate;
  const double closed_share = plm ? 0.2 : 0.25;
  const double sat_share = plm ? 0.3 : 0.25;
  LoopResult loop, base;
  ServeSession session(searcher, &pool, in.queries, rate, o.seconds * 0.5,
                       kSlices, o.seed, &log);
  for (int round = 0; round < kSlices; ++round) {
    RunQueryPhase(o, path, in.queries,
                  SliceBudget(o.seconds * closed_share / kSlices,
                              round + 1 == kSlices, o.seconds),
                  search, nullptr, &log, &scratch, &base, &loop);
    session.OpenSlice(round);
    session.SatSlice(o.seconds * sat_share / kSlices, o.nproc);
  }
  const ServeResult sr = session.Finish();
  const double peak_rss_mb = PeakRssMb();  // before any check data exists
  const double untraced_p50 = Percentile(base.latency_ms, 0.5);
  report->phases.push_back({"closed_loop", loop.calls.size(),
                            loop.calls.size(), 0, 0, 0});
  report->phases.push_back(sr.open);
  report->phases.push_back(sr.sat);
  report->info["open_loop.rate_per_s"] = plm ? kServeRate : kScanRate;
  report->info["index.rows"] = static_cast<double>(in.repo.size());
  report->info["index.dim"] = encoder->dim();

  // ---- Checks ----
  auto ref = BuildReference(
      encoder, IdentityColumns(in.repo), in.queries, &pool,
      plm ? nullptr : searcher->PinSnapshot()->index->AsFlat());
  const auto valid = [&](u32 id) { return id < in.repo.size(); };
  Quality quality;
  CheckCalls(loop.calls, "closed_loop", *ref, !plm, valid, nullptr,
             &report->checks, &quality);
  CheckCalls(sr.calls, "served", *ref, !plm, valid, nullptr, &report->checks,
             &quality);
  report->checks.Expect(sr.open.succeeded == sr.open.attempted,
                        "open loop: a request was refused or expired");
  const double precision = PrecisionOverQueries(
      loop.calls, in.queries, *in.tok, [](u32 id) { return long{id}; },
      kQueries);
  report->checks.Expect(quality.recall() >= (plm ? kRecallFloor : 1.0),
                        "recall_at_10 below floor");
  report->checks.Expect(
      precision >= (plm ? kPlmPrecisionFloor : kScanPrecisionFloor),
      "precision_at_10 below floor");

  if (!o.trace) {
    SetMetric(report, "setup_s", Median(rec.setup_s), "s");
    SetMetric(report, "build_cols_per_s", Median(rec.build_cols_per_s), "1/s");
    SetLatency(report, "query_p50_ms", "query_p95_ms", loop.latency_ms,
               "closed_loop");
    SetLatency(report, "load_p50_ms", nullptr, sr.latency_ms,
               "open_loop");
    SetMetric(report, "load_per_s", sr.sat_qps, "1/s");
    SetMetric(report, "recall_at_10", quality.recall(), "ratio");
    SetMetric(report, "precision_at_10", precision, "ratio");
    SetMetric(report, "peak_rss_mb", peak_rss_mb, "MB");
  } else {
    InitLayerMetrics(report);
    SetBuildLayers(report, rec, in.repo.size());
    SetQueryLayers(report, log, scratch, untraced_p50);
    SetServeLayers(report, sr);
    SetMetric(report, "load_p95_ms", Percentile(sr.latency_ms, 0.95), "ms");
    SetMetric(report, "ann.dist_evals_per_query",
              DistEvalsPerQuery(searcher, in.queries), "count");
    WriteSpans(o, {{"client", &log}});
  }
  return true;
}

bool RunChurn(const RunOptions& o, RunReport* report) {
  const size_t pool_n =
      static_cast<size_t>(std::ceil(kChurnMaxStepsPerSec * o.seconds));
  const Inputs in = MakeInputs(o.seed, 1, kChurnRepo, pool_n, true);
  ThreadPool pool(o.nproc);
  SetupRecord rec;
  PlmModel model;
  std::unique_ptr<core::EmbeddingSearcher> live;
  const std::string dir_prefix =
      o.work_dir + "/live-" + std::to_string(o.seed) + "-" +
      std::to_string(static_cast<long>(::getpid()));
  std::string dir;
  const core::SearcherConfig sc;  // default HNSW, default auto-compaction
  for (int rep = 0; rep < kSetupReps; ++rep) {
    live.reset();
    model = PlmModel{};
    if (!dir.empty()) std::filesystem::remove_all(dir);
    dir = dir_prefix + "-" + std::to_string(rep);
    std::filesystem::remove_all(dir);
    const auto t0 = Clock::now();
    model = TrainPlm(in, o.seed);
    live = std::make_unique<core::EmbeddingSearcher>(&model.dj->encoder(), sc);
    if (const Status st = live->OpenLive(dir); !st.ok()) {
      std::fprintf(stderr, "perfbench: OpenLive failed: %s\n",
                   st.ToString().c_str());
      return false;
    }
    if (!TimedBuild(live.get(), in.repo, &pool, &rec)) return false;
    rec.setup_s.push_back(Sec(t0, Clock::now()));
  }
  rec.train_step_ms = TrainStepMs(*model.dj);
  core::PlmColumnEncoder& enc = model.dj->encoder();
  Warm(live.get(), in.queries);

  // Writer state. Column ids are never reused, so "removed" is permanent.
  std::vector<u32> live_ids;
  std::unordered_map<u32, const lake::Column*> column_of;
  for (u32 i = 0; i < in.repo.size(); ++i) {
    live_ids.push_back(i);
    column_of[i] = &in.repo.column(i);
  }
  // One removal per added column at most, so the pool size bounds it.
  std::vector<u32> removed_log(in.pool.size());
  bool pool_used_up = false;
  std::atomic<size_t> removed_count{0};
  std::vector<double> add_ms, remove_ms, publish_ms, compact_ms, step_ms;
  add_ms.reserve(1 << 16);
  remove_ms.reserve(1 << 16);
  step_ms.reserve(1 << 16);
  PhaseTally writes{"mutations"};
  PhaseTally publishes{"publish"};
  std::atomic<bool> stop{false};
  metrics::Counter* compactions =
      metrics::MetricsRegistry::Global().GetCounter("dj_index_compactions");

  const Clock::time_point epoch = Clock::now();
  SpanLog wlog(o.trace, epoch, 1 << 17);
  SpanLog rlog(o.trace, epoch, 1 << 18);
  const MetricsView before;
  std::atomic<bool> reader_started{false};
  double writer_s = 0;
  // One churn step = AddColumn of an unseen column + RemoveColumn of the
  // oldest live one, so the live size stays flat.
  std::thread writer([&] {
    while (!reader_started.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    size_t next_pool = 0, head = 0;
    const auto start = Clock::now();
    for (uint32_t step = 0; !stop.load(std::memory_order_acquire); ++step) {
      if (next_pool == in.pool.size()) {
        pool_used_up = true;
        break;
      }
      const lake::Column& col = in.pool[next_pool++];
      ++writes.attempted;
      const int asp =
          wlog.Begin("core.add_column", SpanLog::kNoParent, 2 * step);
      const auto t0 = Clock::now();
      const Result<u32> id = live->AddColumn(col);
      const double a = Ms(t0, Clock::now());
      wlog.End(asp);
      if (!id.ok()) {
        ++writes.failed;
        continue;
      }
      ++writes.succeeded;
      add_ms.push_back(a);
      live_ids.push_back(*id);
      column_of[*id] = &col;

      const u32 victim = live_ids[head];
      const u64 c0 = compactions->value();
      ++writes.attempted;
      const int rsp =
          wlog.Begin("core.remove_column", SpanLog::kNoParent, 2 * step + 1);
      const auto t1 = Clock::now();
      const Status st = live->RemoveColumn(victim);
      const double r = Ms(t1, Clock::now());
      wlog.End(rsp);
      if (!st.ok()) {
        ++writes.failed;
        continue;
      }
      ++writes.succeeded;
      ++head;
      remove_ms.push_back(r);
      step_ms.push_back(a + r);
      if (compactions->value() != c0) compact_ms.push_back(r);
      const size_t n = removed_count.load(std::memory_order_relaxed);
      removed_log[n] = victim;
      removed_count.store(n + 1, std::memory_order_release);

      if ((2 * step + 2) % kPublishEvery == 0) {
        ++publishes.attempted;
        const int sp = wlog.Begin("core.publish", SpanLog::kNoParent, step);
        const auto t2 = Clock::now();
        const Status pst = live->PublishSnapshot();
        publish_ms.push_back(Ms(t2, Clock::now()));
        wlog.End(sp);
        if (pst.ok()) {
          ++publishes.succeeded;
        } else {
          ++publishes.failed;
        }
      }
    }
    live_ids.erase(live_ids.begin(),
                   live_ids.begin() + static_cast<long>(head));
    writer_s = Sec(start, Clock::now());
  });

  TraceScratch scratch;
  QueryPath path{live.get(), &enc, &enc, enc.transform_config()};
  LoopResult reader, base;
  reader_started.store(true, std::memory_order_release);
  RunQueryPhase(
      o, path, in.queries, SliceBudget(o.seconds, true, o.seconds),
      [&](const lake::Column& q, std::vector<u32>* ids) {
        *ids = live->Search(q, {.k = kK, .collect_stats = false}).ids;
      },
      [&] { return removed_count.load(std::memory_order_acquire); }, &rlog,
      &scratch, &base, &reader);
  const double untraced_p50 = Percentile(base.latency_ms, 0.5);
  stop.store(true, std::memory_order_release);
  writer.join();
  const MetricsView after;
  const double peak_rss_mb = PeakRssMb();  // before any check data exists
  report->phases.push_back(writes);
  report->phases.push_back(publishes);
  report->phases.push_back({"reader", reader.calls.size(),
                            reader.calls.size(), 0, 0, 0});
  const double compactions_run = after.Value("dj_index_compactions") -
                                 before.Value("dj_index_compactions");
  report->info["churn.compactions"] = compactions_run;
  report->info["churn.publishes"] = static_cast<double>(publish_ms.size());
  report->info["churn.live_size"] = static_cast<double>(live_ids.size());

  // ---- Checks ----
  std::unordered_map<u32, size_t> removed_at;
  const size_t n_removed = removed_count.load();
  for (size_t i = 0; i < n_removed; ++i) removed_at[removed_log[i]] = i;
  const auto ever_added = [&](u32 id) { return column_of.count(id) != 0; };
  // Known defect, reported rather than gated: a search racing an insert of
  // a node with level >= 1 can route into that node before its layer-0
  // links are wired (HnswIndex::InsertWithLevelLocked wires upper layers
  // first) and return fewer than k results.
  size_t short_results = 0;
  {
    // Reader results against what was live: ids assigned, none removed
    // before the search began. Recall is judged on the final state below.
    for (size_t i = 0; i < reader.calls.size(); ++i) {
      const auto ids = reader.calls.Ids(i);
      const std::string where = "reader call " + std::to_string(i);
      report->checks.ExpectEmpty(CheckIdList(ids, ids.size(), ever_added),
                                 where);
      report->checks.ExpectEmpty(
          CheckNoRemoved(ids, removed_at, reader.calls.watermark[i]), where);
      if (ids.size() < kK) ++short_results;
    }
  }
  report->info["reader.short_results"] = static_cast<double>(short_results);
  report->checks.Expect(!pool_used_up,
                        "churn writer used up its unseen columns; raise "
                        "kChurnMaxStepsPerSec");
  report->checks.Expect(compactions_run >= 2,
                        "auto-compaction fired fewer than twice");
  report->checks.Expect(live->live_size() == live_ids.size(),
                        "live_size differs from acknowledged writes");
  // Final recall and P@10 over the live set.
  std::vector<std::pair<u32, const lake::Column*>> live_cols;
  lake::Repository live_repo;
  std::unordered_map<u32, long> position;
  for (u32 id : live_ids) {
    live_cols.push_back({id, column_of[id]});
    position[id] = static_cast<long>(live_repo.Add(*column_of[id]));
  }
  std::vector<lake::Column> probes(in.queries.begin(),
                                   in.queries.begin() + kProbeQueries);
  auto ref = BuildReference(&enc, live_cols, probes, &pool);
  CallLog final_calls, reopened_calls;
  for (uint32_t q = 0; q < probes.size(); ++q) {
    final_calls.Add(q, live->Search(probes[q], {.k = kK}).ids);
  }
  const double dist_evals = DistEvalsPerQuery(live.get(), probes);
  Quality quality;
  CheckCalls(final_calls, "final", *ref, false,
             [&](u32 id) { return ref->table.Contains(id); }, &removed_at,
             &report->checks, &quality);
  const auto live_tok = join::TokenizedRepository::Build(live_repo);
  const double precision = PrecisionOverQueries(
      final_calls, probes, live_tok,
      [&](u32 id) {
        const auto it = position.find(id);
        return it == position.end() ? -1L : it->second;
      },
      kProbeQueries);
  report->checks.Expect(quality.recall() >= kRecallFloor,
                        "final recall_at_10 below floor");
  report->checks.Expect(precision >= kPlmPrecisionFloor,
                        "precision_at_10 below floor");
  // Restart: close, re-open the directory, compare.
  const size_t size_before = live->live_size();
  live.reset();
  live = std::make_unique<core::EmbeddingSearcher>(&enc, sc);
  const Status reopened = live->OpenLive(dir);
  report->checks.Expect(reopened.ok(), "re-open failed");
  if (reopened.ok()) {
    report->checks.Expect(live->live_size() == size_before,
                          "live_size changed across restart");
    for (uint32_t q = 0; q < probes.size(); ++q) {
      reopened_calls.Add(q, live->Search(probes[q], {.k = kK}).ids);
    }
    for (uint32_t q = 0; q < probes.size(); ++q) {
      // Same result set: equal distance lists (ties may swap ids).
      std::vector<EmbeddingTable::Hit> before_hits;
      for (u32 id : final_calls.Ids(q)) {
        before_hits.push_back(
            {ref->table.Distance(ref->qvec[q].data(), id), id});
      }
      std::sort(before_hits.begin(), before_hits.end(),
                [](const auto& a, const auto& b) { return a.dist < b.dist; });
      report->checks.ExpectEmpty(
          CheckEqualsExact(ref->table, ref->qvec[q].data(),
                           reopened_calls.Ids(q), before_hits),
          "restart probe " + std::to_string(q));
    }
  }
  live.reset();
  std::filesystem::remove_all(dir);

  const double mutations = static_cast<double>(writes.succeeded);
  if (!o.trace) {
    SetMetric(report, "setup_s", Median(rec.setup_s), "s");
    SetMetric(report, "build_cols_per_s", Median(rec.build_cols_per_s), "1/s");
    SetLatency(report, "query_p50_ms", "query_p95_ms", reader.latency_ms,
               "reader");
    SetLatency(report, "load_p50_ms", nullptr, step_ms,
               "churn_steps");
    SetMetric(report, "load_per_s", mutations / writer_s, "1/s");
    SetMetric(report, "recall_at_10", quality.recall(), "ratio");
    SetMetric(report, "precision_at_10", precision, "ratio");
    SetMetric(report, "peak_rss_mb", peak_rss_mb, "MB");
  } else {
    InitLayerMetrics(report);
    SetBuildLayers(report, rec, in.repo.size());
    SetQueryLayers(report, rlog, scratch, untraced_p50);
    SetMetric(report, "load_p95_ms", Percentile(step_ms, 0.95), "ms");
    SetMetric(report, "ann.dist_evals_per_query", dist_evals, "count");
    SetMetric(report, "ann.short_results",
              static_cast<double>(short_results), "count");
    SetMetric(report, "core.add_column_ms", Median(add_ms), "ms");
    SetMetric(report, "core.remove_column_ms", Median(remove_ms), "ms");
    SetMetric(report, "core.publish_ms", Median(publish_ms), "ms");
    SetMetric(report, "core.compact_ms",
              compact_ms.empty() ? 0 : Median(compact_ms),
              "ms");
    SetMetric(report, "core.compactions", compactions_run, "count");
    const double records = after.Value("dj_wal_records_total") -
                           before.Value("dj_wal_records_total");
    const double syncs =
        after.Value("dj_wal_syncs_total") - before.Value("dj_wal_syncs_total");
    SetMetric(report, "core.wal_syncs_per_record",
              records > 0 ? syncs / records : 0,
              "ratio");
    if (mutations > 0) {
      SetMetric(report, "util.env.fsyncs_per_mutation",
                (after.Value("dj_env_fsyncs_total") -
                before.Value("dj_env_fsyncs_total")) /
                mutations,
                "count");
      SetMetric(report, "util.env.bytes_written_per_mutation",
                (after.Value("dj_env_bytes_written") -
                before.Value("dj_env_bytes_written")) /
                mutations,
                "bytes");
    }
    WriteSpans(o, {{"reader", &rlog}, {"writer", &wlog}});
  }
  return true;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"query", "serve", "churn",
                                                 "scan"};
  return names;
}

bool RunWorkload(const RunOptions& options, RunReport* report) {
  if (options.workload == "query") return RunQuery(options, report);
  if (options.workload == "serve") return RunServed(options, true, report);
  if (options.workload == "scan") return RunServed(options, false, report);
  if (options.workload == "churn") return RunChurn(options, report);
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
               options.workload.c_str());
  return false;
}

}  // namespace perfbench
