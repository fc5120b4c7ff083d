// perfbench load generator: one process that starts a real rsse_serverd,
// sets it up as a data owner would, drives it with paced closed-loop
// connections through the public owner (TrapdoorGenerator), server
// (RemoteBackend, EmmClient) and wire APIs, checks every answer against
// the plaintext, and prints the run's metrics as a JSON line.
//
//   perfbench_loadgen --workload=<name> --seed=<n> --seconds=<s>
//                     --trace=<0|1> --workdir=<dir>
//
// --trace=0 measures the end-to-end metrics; --trace=1 wraps spans around
// the generator's own calls into each layer and reports per-layer metrics
// (README.md lists both, with the end-to-end metric each layer moves).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "daemon.h"
#include "data/generators.h"
#include "dprf/ggm_dprf.h"
#include "harness.h"
#include "rsse/constant.h"
#include "rsse/local_backend.h"
#include "rsse/log_src_i.h"
#include "rsse/scheme.h"
#include "server/client.h"
#include "server/remote_backend.h"
#include "server/server.h"
#include "server/wire.h"
#include "shard/sharded_emm.h"
#include "sse/emm_codec.h"
#include "sse/encrypted_multimap.h"
#include "sse/keyword_keys.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using rsse::Range;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Workloads. Why each one is in the set is recorded in BENCHMARK.json.
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  rsse::SchemeId scheme;
  uint64_t n;
  uint64_t domain;
  uint64_t range_width;
  int shards;           // Constant-BRC dictionary shards
  int readers;          // query connections
  double fixed_qps;     // total offered query rate of the fixed-rate phase
  double limit_ms;      // p99 limit of the capacity search
  bool mmap;            // --mmap=on (else the heap store)
  double update_bps;    // paced Update batches per second (0: no writer)
};

constexpr size_t kInsertsPerBatch = 16;
constexpr uint64_t kPrefillBatches = 4000;
constexpr double kWarmupSeconds = 2;
// Windows of the fixed-rate phase: the median latency and the daemon CPU per
// operation are medians over windows, so that one noisy stretch of a shared
// machine moves one window and not the metric.
constexpr double kWindowSeconds = 3;

const Workload kWorkloads[] = {
    {"constant_sparse", rsse::SchemeId::kConstantBrc, 60000, 65536, 1024, 4,
     1, 60, 50, false, 0},
    {"src_i_dense", rsse::SchemeId::kLogarithmicSrcI, 30000, 1024, 51, 1, 4,
     250, 20, false, 0},
    {"mixed_durable", rsse::SchemeId::kConstantBrc, 60000, 65536, 1024, 4, 2,
     60, 50, true, 40},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  std::string workdir = ".bench_work";
};

// ---------------------------------------------------------------------------
// Tracing: per-thread span buffers, merged and reduced to self times at the
// end of the run.
// ---------------------------------------------------------------------------

struct TraceBuf {
  std::vector<Span> spans;
  int Open(const char* name, int parent) {
    spans.push_back(Span{name, parent, NowNs(), 0});
    return static_cast<int>(spans.size()) - 1;
  }
  void Close(int i) { spans[static_cast<size_t>(i)].end_ns = NowNs(); }
};

/// RAII span; a no-op when `buf` is null (tracing off).
class ScopedSpan {
 public:
  ScopedSpan(TraceBuf* buf, const char* name, int parent = -1)
      : buf_(buf), index_(buf == nullptr ? -1 : buf->Open(name, parent)) {}
  ~ScopedSpan() {
    if (buf_ != nullptr) buf_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return index_; }

 private:
  TraceBuf* buf_;
  int index_;
};

/// Self time summed per span name.
struct SelfTotals {
  std::map<std::string, double> ns;
  std::map<std::string, size_t> count;

  void Add(const TraceBuf& buf) {
    const std::vector<int64_t> self = SelfTimes(buf.spans);
    for (size_t i = 0; i < buf.spans.size(); ++i) {
      ns[buf.spans[i].name] += static_cast<double>(self[i]);
      ++count[buf.spans[i].name];
    }
  }
  double Ns(const std::string& name) const {
    auto it = ns.find(name);
    return it == ns.end() ? 0 : it->second;
  }
  size_t Count(const std::string& name) const {
    auto it = count.find(name);
    return it == count.end() ? 0 : it->second;
  }
  /// Mean self time of one `name` span, in ns.
  double MeanNs(const std::string& name) const {
    const size_t c = Count(name);
    return c == 0 ? 0 : Ns(name) / static_cast<double>(c);
  }
};

// ---------------------------------------------------------------------------
// Plaintext ground truth.
// ---------------------------------------------------------------------------

class Truth {
 public:
  explicit Truth(const rsse::Dataset& ds) : by_attr_(ds.SortedByAttr()) {}

  std::vector<uint64_t> Ids(const Range& r) const {
    auto lo = std::lower_bound(
        by_attr_.begin(), by_attr_.end(), r.lo,
        [](const rsse::Record& rec, uint64_t v) { return rec.attr < v; });
    std::vector<uint64_t> ids;
    for (auto it = lo; it != by_attr_.end() && it->attr <= r.hi; ++it) {
      ids.push_back(it->id);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  }

 private:
  std::vector<rsse::Record> by_attr_;
};

/// Derives fixed keys whatever the keyword: the owner's insert path hands
/// EncryptKeywordEntries the leaf key it delegated for one domain value.
class FixedKeys : public rsse::sse::KeywordKeyDeriver {
 public:
  explicit FixedKeys(rsse::sse::KeywordKeys keys) : keys_(std::move(keys)) {}
  rsse::sse::KeywordKeys Derive(const rsse::Bytes&) const override {
    return keys_;
  }

 private:
  rsse::sse::KeywordKeys keys_;
};

// ---------------------------------------------------------------------------
// Paced closed loop.
// ---------------------------------------------------------------------------

/// Runs `conns` connections, each a paced closed loop: request k of
/// connection t is due at start + (t / conns + k) * conns / qps; it is sent
/// at its due time, or when the previous reply arrives if that is later.
/// Latency counts from the due time. Requests still unsent when the phase
/// ends are misses. `op(t, k, done)` runs one request and sets `done` when
/// the answer is ready (before any checking); it returns false on failure.
/// qps <= 0 runs unpaced (each request sent as soon as the last returns).
using Op = std::function<bool(int, uint64_t, Clock::time_point&)>;

std::vector<RequestSample> RunPaced(int conns, double qps, double seconds,
                                    const Op& op) {
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  const double interval_s = qps > 0 ? conns / qps : 0;
  std::vector<std::vector<RequestSample>> per(static_cast<size_t>(conns));
  std::vector<std::thread> threads;
  for (int t = 0; t < conns; ++t) {
    threads.emplace_back([&, t] {
      auto& out = per[static_cast<size_t>(t)];
      for (uint64_t k = 0;; ++k) {
        const double due_s =
            interval_s * (static_cast<double>(t) / conns + static_cast<double>(k));
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(due_s));
        if (due >= end) break;
        auto now = Clock::now();
        if (now >= end && interval_s > 0) {
          // Due within the phase but never sent: a growing backlog.
          const double left = std::chrono::duration<double>(end - due).count();
          const auto unsent = static_cast<size_t>(std::ceil(left / interval_s));
          for (size_t i = 0; i < unsent; ++i) {
            out.push_back({due_s + static_cast<double>(i) * interval_s,
                           kMissed, kMissed});
          }
          break;
        }
        if (now >= end) break;
        if (now < due) {
          std::this_thread::sleep_until(due);
          now = Clock::now();
        }
        const auto send = std::max(now, due);
        Clock::time_point done = send;
        const bool ok = op(t, k, done);
        RequestSample s;
        s.due_s = due_s;
        s.lateness_ms = Ms(send - due);
        s.latency_ms = ok ? Ms(done - due) : kMissed;
        out.push_back(s);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  std::vector<RequestSample> all;
  for (auto& v : per) all.insert(all.end(), v.begin(), v.end());
  return all;
}

std::vector<double> Latencies(const std::vector<RequestSample>& samples) {
  std::vector<double> out;
  for (const RequestSample& s : samples) out.push_back(s.latency_ms);
  return out;
}

std::vector<double> Lateness(const std::vector<RequestSample>& samples) {
  std::vector<double> out;
  for (const RequestSample& s : samples) out.push_back(s.lateness_ms);
  return out;
}

// ---------------------------------------------------------------------------
// The benchmark.
// ---------------------------------------------------------------------------

/// One recorded query of the traced phase: its token sets and the remote
/// answers, replayed through the layers after the phase.
struct RecordedQuery {
  std::vector<rsse::TokenSet> rounds;
  std::vector<rsse::ResolvedIds> answers;
};

struct QueryTotals {
  size_t queries = 0;
  size_t token_count = 0;
  size_t token_bytes = 0;
  size_t ids_before_refine = 0;
  size_t ids_in_range = 0;
  void Add(const QueryTotals& o) {
    queries += o.queries;
    token_count += o.token_count;
    token_bytes += o.token_bytes;
    ids_before_refine += o.ids_before_refine;
    ids_in_range += o.ids_in_range;
  }
};

/// One reader connection with everything its thread owns.
struct Conn {
  rsse::server::EmmClient client;
  rsse::server::RemoteBackend backend{client};
  QueryTotals totals;
  TraceBuf trace;
  std::vector<RecordedQuery> recorded;
  size_t record_cap = 0;

  explicit Conn(const rsse::server::ClientOptions& options)
      : client(options) {}
};

rsse::server::ClientOptions NoRetry() {
  rsse::server::ClientOptions o;
  o.retry_idempotent = false;
  return o;
}

class Bench {
 public:
  Bench(const Workload& w, const Args& args)
      : w_(w),
        args_(args),
        dataset_(MakeDataset(w, args.seed)),
        truth_(dataset_),
        ranges_(MakeRanges(w, args.seed)),
        batch_of_value_(w.domain) {
    for (auto& b : batch_of_value_) b.store(-1);
    fresh_values_ = FreshValues(args.seed);
  }

  int Run();

 private:
  static rsse::Dataset MakeDataset(const Workload& w, uint64_t seed) {
    rsse::Rng rng(seed);
    return rsse::GenerateUniform(w.n, w.domain, rng);
  }

  static std::vector<Range> MakeRanges(const Workload& w, uint64_t seed) {
    rsse::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
    std::vector<Range> out(4096);
    for (Range& r : out) {
      r.lo = rng.Uniform(0, w.domain - w.range_width);
      r.hi = r.lo + w.range_width - 1;
    }
    return out;
  }

  /// Domain values holding no tuple, in a seeded order: each Update batch
  /// inserts at the next one.
  std::vector<uint64_t> FreshValues(uint64_t seed) const {
    std::vector<bool> used(w_.domain);
    for (const rsse::Record& rec : dataset_.records()) used[rec.attr] = true;
    std::vector<uint64_t> out;
    for (uint64_t v = 0; v < w_.domain; ++v) {
      if (!used[v]) out.push_back(v);
    }
    rsse::Rng rng(seed ^ 0x51ed270b27a3c1d9ull);
    rng.Shuffle(out);
    return out;
  }

  std::unique_ptr<rsse::RangeScheme> MakeScheme(uint64_t seed) const {
    if (w_.scheme == rsse::SchemeId::kConstantBrc) {
      auto s = std::make_unique<rsse::ConstantScheme>(rsse::CoverTechnique::kBrc,
                                                      seed);
      s->SetShards(w_.shards);
      return s;
    }
    return std::make_unique<rsse::LogarithmicSrcIScheme>(seed);
  }

  /// The range of request k of connection t: the connections interleave
  /// over the seeded range list.
  const Range& RangeFor(int t, uint64_t k) const {
    return ranges_[(static_cast<size_t>(t) +
                    static_cast<size_t>(w_.readers) * k) %
                   ranges_.size()];
  }

  bool HasFalsePositives() const {
    return w_.scheme == rsse::SchemeId::kLogarithmicSrcI;
  }

  void Fail(const std::string& what) {
    failed_.fetch_add(1);
    std::lock_guard<std::mutex> lock(fail_mu_);
    if (fail_notes_.size() < 5) fail_notes_.push_back(what);
  }

  std::unique_ptr<Conn> Connect() {
    auto c = std::make_unique<Conn>(NoRetry());
    rsse::Status s = c->client.Connect("127.0.0.1", daemon_->port());
    if (!s.ok()) Fail("connect: " + s.ToString());
    return c;
  }

  std::vector<std::string> DaemonArgs() const {
    return {"--port=0",
            "--search-workers=" + std::to_string(nproc_),
            "--data-dir=" + (fs::path(workdir_) / "data").string(),
            std::string("--mmap=") + (w_.mmap ? "on" : "off")};
  }

  /// The owner's query protocol over `backend`: round-1 trapdoor, then
  /// resolve rounds and dependent trapdoors until the owner declines, then
  /// the owner's decode (and, for SRC-i, refinement) into `ids`. Each
  /// round's tokens and answer are kept in `rounds`. This is the loop of
  /// RangeScheme::QueryVia, written out so that spans wrap each call and
  /// the rounds can be replayed.
  bool Answer(rsse::SearchBackend& backend, const Range& r, TraceBuf* trace,
              RecordedQuery& rounds, QueryTotals& totals,
              std::vector<uint64_t>& ids);

  /// One checked query: Answer, `done` set when the ids are ready, then
  /// the ids checked against the plaintext and, when `rec` is set, the
  /// rounds recorded for the traced replay.
  bool Query(rsse::SearchBackend& backend, const Range& r, TraceBuf* trace,
             RecordedQuery* rec, QueryTotals& totals, Clock::time_point& done);

  /// Checks `ids` (sorted) for `r`, given the Update batches acked before
  /// the query was sent and those sent by the time it was answered.
  bool CheckIds(const Range& r, const std::vector<uint64_t>& ids,
                int64_t acked_before, int64_t sent_after) const;

  /// Owner side of one insert batch: kInsertsPerBatch tuples at domain
  /// value fresh_values_[batch], encrypted with sse::EncryptKeywordEntries
  /// under the value's delegated leaf key, appended to `out`.
  bool EncryptBatch(uint64_t batch,
                    std::vector<std::pair<rsse::Label, rsse::Bytes>>& out);

  /// Sends batches [first, first + count) in one Update frame.
  bool Update(rsse::server::EmmClient& client, uint64_t first, uint64_t count);

  void Setup(TraceBuf* trace);
  /// Queries at the workload's fixed rate; with `cpu_per_op`, also the
  /// daemon's CPU per completed operation of each kWindowSeconds window.
  std::vector<RequestSample> FixedPhase(
      double seconds, bool traced, std::vector<double>* cpu_per_op = nullptr);
  double CapacityPhase(double seconds);
  double RecoveryCycle();
  void VerifyAllInserts();
  void Replay(SelfTotals& self, std::map<std::string, double>& m);
  void PersistMetrics(SelfTotals& self, std::map<std::string, double>& m);
  double DiskBytes() const;

  const Workload& w_;
  Args args_;
  rsse::Dataset dataset_;
  Truth truth_;
  std::vector<Range> ranges_;
  std::vector<uint64_t> fresh_values_;
  int nproc_ = std::max(1u, std::thread::hardware_concurrency());
  std::string workdir_;
  std::unique_ptr<Daemon> daemon_;

  std::unique_ptr<rsse::RangeScheme> scheme_;
  rsse::ServerSetup server_setup_;
  std::mutex owner_mu_;  // the owner is one party; its RNG is not shared

  std::vector<std::unique_ptr<Conn>> conns_;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::mutex fail_mu_;
  std::vector<std::string> fail_notes_;

  // Update log (mixed_durable): batch b inserts kInsertsPerBatch tuples
  // with ids n + b * kInsertsPerBatch + j at domain value fresh_values_[b].
  std::vector<std::atomic<int64_t>> batch_of_value_;
  std::atomic<int64_t> batches_sent_{0};
  std::atomic<int64_t> batches_acked_{0};
  std::atomic<uint64_t> ops_done_{0};  // successful queries and updates
  std::vector<std::vector<std::pair<rsse::Label, rsse::Bytes>>> acked_entries_;
  double update_user_bytes_ = 0;
  std::vector<RequestSample> update_samples_;

  std::vector<double> setup_s_;
};

bool Bench::Answer(rsse::SearchBackend& backend, const Range& r,
                   TraceBuf* trace, RecordedQuery& rounds, QueryTotals& totals,
                   std::vector<uint64_t>& ids) {
  ScopedSpan root(trace, "query");
  rsse::TrapdoorGenerator& owner = scheme_->trapdoors();
  rsse::Result<rsse::TokenSet> first = rsse::Status::Internal("unset");
  {
    std::lock_guard<std::mutex> lock(owner_mu_);
    ScopedSpan span(trace, "rsse.trapdoor", root.index());
    first = owner.Trapdoor(r);
  }
  if (!first.ok()) {
    Fail("trapdoor: " + first.status().ToString());
    return false;
  }
  std::optional<rsse::TokenSet> tokens = std::move(*first);
  while (tokens.has_value()) {
    totals.token_count += tokens->TokenCount();
    totals.token_bytes += tokens->TokenBytes();
    rsse::Result<rsse::ResolvedIds> resolved = rsse::Status::Internal("unset");
    {
      ScopedSpan span(trace, "server.roundtrip", root.index());
      resolved = backend.Resolve(*tokens);
    }
    if (!resolved.ok()) {
      Fail("resolve: " + resolved.status().ToString());
      return false;
    }
    rounds.rounds.push_back(std::move(*tokens));
    rounds.answers.push_back(std::move(*resolved));
    rsse::Result<std::optional<rsse::TokenSet>> next =
        rsse::Status::Internal("unset");
    {
      std::lock_guard<std::mutex> lock(owner_mu_);
      ScopedSpan span(trace, "rsse.trapdoor", root.index());
      next = owner.ContinueTrapdoor(r, static_cast<int>(rounds.rounds.size()),
                                    rounds.answers.back());
    }
    if (!next.ok()) {
      Fail("continue trapdoor: " + next.status().ToString());
      return false;
    }
    tokens = std::move(*next);
  }
  ScopedSpan span(trace, "rsse.refine", root.index());
  for (const rsse::Bytes& payload : rounds.answers.back().payloads) {
    if (auto id = rsse::sse::DecodeIdPayload(payload); id.has_value()) {
      ids.push_back(*id);
    }
  }
  totals.ids_before_refine += ids.size();
  if (HasFalsePositives()) ids = rsse::FilterIdsToRange(dataset_, ids, r);
  return true;
}

bool Bench::Query(rsse::SearchBackend& backend, const Range& r,
                  TraceBuf* trace, RecordedQuery* rec, QueryTotals& totals,
                  Clock::time_point& done) {
  attempted_.fetch_add(1);
  const int64_t acked_before = batches_acked_.load();
  RecordedQuery rounds;
  std::vector<uint64_t> ids;
  const bool ok = Answer(backend, r, trace, rounds, totals, ids);
  done = Clock::now();
  if (!ok) return false;
  const int64_t sent_after = batches_sent_.load();
  ++totals.queries;
  ops_done_.fetch_add(1);
  std::sort(ids.begin(), ids.end());
  totals.ids_in_range += ids.size();
  if (!CheckIds(r, ids, acked_before, sent_after)) {
    Fail("wrong ids for [" + std::to_string(r.lo) + ", " +
         std::to_string(r.hi) + "]");
    return false;
  }
  if (rec != nullptr) *rec = std::move(rounds);
  return true;
}

bool Bench::CheckIds(const Range& r, const std::vector<uint64_t>& ids,
                     int64_t acked_before, int64_t sent_after) const {
  const std::vector<uint64_t> base = truth_.Ids(r);
  const auto split = std::lower_bound(ids.begin(), ids.end(), w_.n);
  if (!std::equal(ids.begin(), split, base.begin(), base.end())) return false;
  // Inserted ids: whole batches, each sent by the time of the reply and at
  // a value inside the range; every batch acked before the send present.
  std::map<int64_t, size_t> seen;
  for (auto it = split; it != ids.end(); ++it) {
    const auto b = static_cast<int64_t>((*it - w_.n) / kInsertsPerBatch);
    if (b >= sent_after || !r.Contains(fresh_values_[static_cast<size_t>(b)])) {
      return false;
    }
    ++seen[b];
  }
  for (const auto& [b, count] : seen) {
    if (count != kInsertsPerBatch) return false;
  }
  if (acked_before == 0) return true;
  for (uint64_t v = r.lo; v <= r.hi; ++v) {
    const int64_t b = batch_of_value_[v].load();
    if (b >= 0 && b < acked_before && seen.count(b) == 0) return false;
  }
  return true;
}

bool Bench::EncryptBatch(uint64_t batch,
                         std::vector<std::pair<rsse::Label, rsse::Bytes>>& out) {
  if (batch >= fresh_values_.size()) {
    Fail("out of fresh domain values");
    return false;
  }
  const uint64_t v = fresh_values_[batch];
  auto& constant = static_cast<rsse::ConstantScheme&>(*scheme_);
  std::vector<rsse::GgmDprf::Token> leaf_token;
  {
    std::lock_guard<std::mutex> lock(owner_mu_);
    leaf_token = constant.Delegate(Range{v, v});
  }
  std::vector<rsse::Label> leaf;
  if (leaf_token.size() != 1 ||
      !rsse::GgmDprf::ExpandInto(leaf_token[0], leaf) || leaf.size() != 1) {
    Fail("leaf delegation");
    return false;
  }
  rsse::sse::KeywordKeys keys;
  rsse::sse::KeysFromSharedSecretInto(
      rsse::ConstByteSpan(leaf[0].data(), leaf[0].size()), keys);
  const FixedKeys deriver(keys);
  std::vector<rsse::Bytes> payloads;
  for (size_t j = 0; j < kInsertsPerBatch; ++j) {
    payloads.push_back(
        rsse::sse::EncodeIdPayload(w_.n + batch * kInsertsPerBatch + j));
  }
  rsse::sse::EmmBuildScratch scratch;
  rsse::Bytes keyword;
  rsse::AppendUint64(keyword, v);
  rsse::Status s = rsse::sse::EncryptKeywordEntries(
      keyword, payloads, deriver, /*pad_quantum=*/0, scratch,
      [&](const rsse::Label& label, size_t size) {
        out.emplace_back(label, rsse::Bytes(size));
        return rsse::ByteSpan(out.back().second);
      });
  if (!s.ok()) {
    Fail("encrypt insert: " + s.ToString());
    return false;
  }
  batch_of_value_[v].store(static_cast<int64_t>(batch));
  return true;
}

bool Bench::Update(rsse::server::EmmClient& client, uint64_t first,
                   uint64_t count) {
  attempted_.fetch_add(1);
  std::vector<std::pair<rsse::Label, rsse::Bytes>> entries;
  entries.reserve(count * kInsertsPerBatch);
  for (uint64_t b = first; b < first + count; ++b) {
    if (!EncryptBatch(b, entries)) return false;
  }
  batches_sent_.store(static_cast<int64_t>(first + count));
  rsse::Result<rsse::server::UpdateResponse> resp = client.Update(entries);
  if (!resp.ok()) {
    Fail("update: " + resp.status().ToString());
    return false;
  }
  batches_acked_.store(static_cast<int64_t>(first + count));
  ops_done_.fetch_add(1);
  for (const auto& [label, ct] : entries) {
    update_user_bytes_ += static_cast<double>(label.size() + ct.size());
  }
  acked_entries_.push_back(std::move(entries));
  return true;
}

void Bench::Setup(TraceBuf* trace) {
  constexpr int kSetups = 3;
  auto& client = conns_[0]->client;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    ScopedSpan root(trace, "setup");
    auto scheme = MakeScheme(args_.seed * 131 + static_cast<uint64_t>(i));
    rsse::Status s;
    {
      ScopedSpan span(trace, "rsse.build", root.index());
      s = scheme->Build(dataset_);
    }
    if (!s.ok()) {
      Fail("build: " + s.ToString());
      return;
    }
    rsse::Result<rsse::ServerSetup> setup = rsse::Status::Internal("unset");
    {
      ScopedSpan span(trace, "rsse.export", root.index());
      setup = scheme->ExportServerSetup();
    }
    if (!setup.ok()) {
      Fail("export: " + setup.status().ToString());
      return;
    }
    {
      ScopedSpan span(trace, "server.install", root.index());
      s = rsse::server::InstallServerSetup(client, *setup);
    }
    if (!s.ok()) {
      Fail("install: " + s.ToString());
      return;
    }
    scheme_ = std::move(scheme);
    server_setup_ = std::move(*setup);
    Clock::time_point done;
    QueryTotals ignored;
    Query(conns_[0]->backend, ranges_[0], nullptr, nullptr, ignored, done);
    setup_s_.push_back(std::chrono::duration<double>(done - t0).count());
  }
}

std::vector<RequestSample> Bench::FixedPhase(double seconds, bool traced,
                                             std::vector<double>* cpu_per_op) {
  // Daemon CPU per completed operation, per kWindowSeconds window.
  std::atomic<bool> phase_done{false};
  std::thread sampler;
  if (cpu_per_op != nullptr) {
    sampler = std::thread([&] {
      double cpu0 = daemon_->CpuMillis();
      uint64_t ops0 = ops_done_.load();
      auto next = Clock::now();
      while (!phase_done.load()) {
        next += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(kWindowSeconds));
        while (!phase_done.load() && Clock::now() < next) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        const double cpu = daemon_->CpuMillis();
        const uint64_t ops = ops_done_.load();
        if (ops > ops0) {
          cpu_per_op->push_back((cpu - cpu0) / static_cast<double>(ops - ops0));
        }
        cpu0 = cpu;
        ops0 = ops;
      }
    });
  }
  std::vector<RequestSample> samples = RunPaced(
      w_.readers, w_.fixed_qps, seconds,
      [&](int t, uint64_t k, Clock::time_point& done) {
        Conn& c = *conns_[static_cast<size_t>(t)];
        RecordedQuery rec;
        const bool record = traced && c.recorded.size() < c.record_cap;
        const bool ok = Query(c.backend, RangeFor(t, k),
                              traced ? &c.trace : nullptr,
                              record ? &rec : nullptr, c.totals, done);
        if (ok && record) c.recorded.push_back(std::move(rec));
        return ok;
      });
  phase_done.store(true);
  if (sampler.joinable()) sampler.join();
  return samples;
}

double Bench::CapacityPhase(double seconds) {
  // A tenth of the phase probes the unpaced throughput X; bisection steps
  // of a tenth each then search [fixed rate, max(4 x fixed, 1.5 X)] in six
  // decisions, a failing rate running twice before it counts (so the
  // phase may overrun by a few steps).
  const double slice = seconds / 10;
  uint64_t offset = 1u << 20;
  auto op = [&](int t, uint64_t k, Clock::time_point& done) {
    Conn& c = *conns_[static_cast<size_t>(t)];
    QueryTotals ignored;
    return Query(c.backend, RangeFor(t, k + offset), nullptr, nullptr,
                 ignored, done);
  };
  const std::vector<RequestSample> probe = RunPaced(w_.readers, 0, slice, op);
  const double x = static_cast<double>(probe.size()) / slice;
  std::vector<StepVerdict> trail;
  const double cap = SearchCapacity(
      w_.fixed_qps, std::max(4 * w_.fixed_qps, 1.5 * x), 6, 2,
      [&](double qps) {
        offset += 1u << 16;
        return JudgeStep(qps, RunPaced(w_.readers, qps, slice, op), slice,
                         w_.limit_ms);
      },
      &trail);
  std::printf("  capacity: unpaced %.1f qps; steps", x);
  for (const StepVerdict& v : trail) {
    std::printf(" %.1f%s(p99 %.1f)", v.offered_qps, v.holds ? "+" : "-",
                v.p99_ms);
  }
  std::printf("\n");
  return cap;
}

double Bench::RecoveryCycle() {
  const auto t0 = Clock::now();
  conns_.clear();
  daemon_->Stop(SIGKILL);
  rsse::Status s = daemon_->Start();
  if (!s.ok()) {
    Fail("restart: " + s.ToString());
    return 0;
  }
  conns_.push_back(Connect());
  Clock::time_point done;
  QueryTotals ignored;
  // The recovery probe reads a range holding inserts when there are any.
  Range r = ranges_[1];
  if (!fresh_values_.empty() && batches_acked_.load() > 0) {
    const uint64_t v = fresh_values_[0];
    r.lo = v >= w_.range_width / 2 ? v - w_.range_width / 2 : 0;
    r.lo = std::min(r.lo, w_.domain - w_.range_width);
    r.hi = r.lo + w_.range_width - 1;
  }
  if (!Query(conns_[0]->backend, r, nullptr, nullptr, ignored, done)) return 0;
  for (int t = 1; t < w_.readers; ++t) conns_.push_back(Connect());
  return Ms(done - t0);
}

void Bench::VerifyAllInserts() {
  // After the final restart every acked insert must be readable: sweep the
  // whole domain in range-width windows.
  QueryTotals ignored;
  for (uint64_t lo = 0; lo < w_.domain; lo += w_.range_width) {
    Range r{lo, std::min(w_.domain, lo + w_.range_width) - 1};
    Clock::time_point done;
    if (!Query(conns_[0]->backend, r, nullptr, nullptr, ignored, done)) return;
  }
}

double Bench::DiskBytes() const {
  double bytes = 0;
  for (const auto& e : fs::directory_iterator(fs::path(workdir_) / "data")) {
    if (e.is_regular_file()) bytes += static_cast<double>(e.file_size());
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Traced replays: one raw-socket wire replay and one in-process replay of
// every recorded token set through the public layer calls.
// ---------------------------------------------------------------------------

/// Minimal blocking socket for the wire replay.
class RawSocket {
 public:
  explicit RawSocket(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd_ >= 0 &&
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
    int one = 1;
    if (fd_ >= 0) ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~RawSocket() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawSocket(const RawSocket&) = delete;
  RawSocket& operator=(const RawSocket&) = delete;

  bool ok() const { return fd_ >= 0; }

  bool Send(const rsse::Bytes& b) {
    size_t off = 0;
    while (off < b.size()) {
      const ssize_t n = ::send(fd_, b.data() + off, b.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads frames into `buf` until a SearchDone or Error frame; counts them.
  bool ReadResponse(rsse::Bytes& buf, size_t& frames) {
    buf.clear();
    frames = 0;
    size_t offset = 0;
    uint8_t chunk[1 << 16];
    while (true) {
      rsse::server::Frame frame;
      const auto parse =
          rsse::server::DecodeFrame(buf, offset, frame, nullptr);
      if (parse == rsse::server::FrameParse::kMalformed) return false;
      if (parse == rsse::server::FrameParse::kFrame) {
        ++frames;
        if (frame.type == rsse::server::FrameType::kSearchDone) return true;
        if (frame.type == rsse::server::FrameType::kError) return false;
        continue;
      }
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf.insert(buf.end(), chunk, chunk + n);
    }
  }

 private:
  int fd_ = -1;
};

rsse::Bytes RoundRequest(const rsse::TokenSet& t) {
  namespace w = rsse::server;
  rsse::Bytes frame;
  if (!t.ggm.empty()) {
    w::SearchBatchRequest req;
    w::WireQuery q;
    for (const rsse::GgmDprf::Token& tok : t.ggm) {
      w::WireToken wt;
      wt.level = static_cast<uint8_t>(tok.level);
      std::copy(tok.seed.begin(), tok.seed.end(), wt.seed.begin());
      q.tokens.push_back(wt);
    }
    req.queries.push_back(std::move(q));
    (void)w::EncodeFrame(w::FrameType::kSearchBatchReq, req.Encode(), frame);
    return frame;
  }
  w::SearchKeywordRequest req;
  req.store_id = t.store;
  w::SearchKeywordRequest::Query q;
  for (const rsse::sse::KeywordKeys& k : t.keyword) {
    q.tokens.push_back(w::WireKeywordToken{0, k.label_key, k.value_key});
  }
  req.queries.push_back(std::move(q));
  (void)w::EncodeFrame(w::FrameType::kSearchKeywordReq, req.Encode(), frame);
  return frame;
}

/// Answer items of one round, as strings so they sort and compare.
using Items = std::vector<std::string>;

std::string Item(const rsse::Bytes& payload) {
  return std::string(payload.begin(), payload.end());
}

/// One response stream decoded through the wire layer.
struct Response {
  std::vector<rsse::server::SearchResult> ids;
  std::vector<rsse::server::SearchPayloadResult> payloads;
  rsse::server::SearchDone done;
};

bool DecodeResponse(const rsse::Bytes& buf, Response& out) {
  namespace w = rsse::server;
  size_t offset = 0;
  w::Frame frame;
  while (w::DecodeFrame(buf, offset, frame, nullptr) == w::FrameParse::kFrame) {
    if (frame.type == w::FrameType::kSearchResult) {
      auto r = w::SearchResult::Decode(frame.payload);
      if (!r.ok()) return false;
      out.ids.push_back(std::move(*r));
    } else if (frame.type == w::FrameType::kSearchPayload) {
      auto r = w::SearchPayloadResult::Decode(frame.payload);
      if (!r.ok()) return false;
      out.payloads.push_back(std::move(*r));
    } else if (frame.type == w::FrameType::kSearchDone) {
      auto r = w::SearchDone::Decode(frame.payload);
      if (!r.ok()) return false;
      out.done = *r;
      return true;
    }
  }
  return false;
}

/// A response's answer items, sorted (ids as id payloads).
Items ResponseItems(const Response& r) {
  Items items;
  for (const auto& chunk : r.ids) {
    for (uint64_t id : chunk.ids) {
      items.push_back(Item(rsse::sse::EncodeIdPayload(id)));
    }
  }
  for (const auto& chunk : r.payloads) {
    for (const rsse::Bytes& p : chunk.payloads) items.push_back(Item(p));
  }
  std::sort(items.begin(), items.end());
  return items;
}

void Bench::Replay(SelfTotals& self, std::map<std::string, double>& m) {
  std::vector<const RecordedQuery*> recorded;
  for (const auto& c : conns_) {
    for (const RecordedQuery& q : c->recorded) recorded.push_back(&q);
  }
  if (recorded.empty()) {
    Fail("no traced queries recorded");
    return;
  }

  // Wire: replay every recorded round over a raw socket.
  RawSocket sock(daemon_->port());
  if (!sock.ok()) {
    Fail("raw socket connect");
    return;
  }
  std::vector<std::vector<Items>> wire_items(recorded.size());
  double bytes = 0, frames = 0, search_ns = 0, rounds = 0, inserted = 0;
  TraceBuf trace;
  for (size_t i = 0; i < recorded.size(); ++i) {
    for (const rsse::TokenSet& t : recorded[i]->rounds) {
      rsse::Bytes buf;
      size_t nframes = 0;
      if (!sock.Send(RoundRequest(t)) || !sock.ReadResponse(buf, nframes)) {
        Fail("wire replay");
        return;
      }
      Response response;
      bool ok = false;
      {
        ScopedSpan span(&trace, "wire.decode");
        ok = DecodeResponse(buf, response);
      }
      if (!ok) {
        Fail("wire replay decode");
        return;
      }
      bytes += static_cast<double>(buf.size());
      frames += static_cast<double>(nframes);
      search_ns += static_cast<double>(response.done.search_nanos);
      rounds += 1;
      wire_items[i].push_back(ResponseItems(response));
    }
  }

  // The in-process stores: the shipped setup, loaded as the server loads
  // it. With updates, a mapped v2 image of it plus every acked insert.
  std::map<uint32_t, rsse::shard::ShardedEmm> stores;
  for (const rsse::StoreSetup& s : server_setup_.stores) {
    auto loaded = rsse::LoadServableIndex(s.index_blob);
    if (!loaded.ok()) {
      Fail("load store: " + loaded.status().ToString());
      return;
    }
    stores.emplace(s.store, std::move(*loaded));
  }
  if (w_.update_bps > 0) {
    const fs::path image = fs::path(workdir_) / "replay.img";
    {
      const rsse::Bytes v2 = stores.at(rsse::kPrimaryStore).SerializeV2();
      std::ofstream out(image, std::ios::binary);
      out.write(reinterpret_cast<const char*>(v2.data()),
                static_cast<std::streamsize>(v2.size()));
    }
    rsse::Result<rsse::shard::ShardedEmm> mapped =
        rsse::Status::Internal("unset");
    {
      ScopedSpan span(&trace, "shard.open_mapped");
      mapped = rsse::shard::ShardedEmm::OpenMapped(image.string());
    }
    if (!mapped.ok()) {
      Fail("open mapped: " + mapped.status().ToString());
      return;
    }
    {
      ScopedSpan span(&trace, "shard.insert");
      for (const auto& batch : acked_entries_) {
        for (const auto& [label, ct] : batch) {
          mapped->Insert(label, rsse::ConstByteSpan(ct.data(), ct.size()));
          inserted += 1;
        }
      }
    }
    stores.erase(rsse::kPrimaryStore);
    stores.emplace(rsse::kPrimaryStore, std::move(*mapped));
  }

  // Layers: GGM expand, keyword KDF and dictionary search, one layer at a
  // time over each recorded round; the answers must match the wire's.
  double leaves = 0, tokens_searched = 0;
  rsse::sse::SearchStats stats;
  std::vector<rsse::Label> leaf_buf;
  for (size_t i = 0; i < recorded.size(); ++i) {
    const RecordedQuery& q = *recorded[i];
    for (size_t round = 0; round < q.rounds.size(); ++round) {
      const rsse::TokenSet& t = q.rounds[round];
      const rsse::shard::ShardedEmm& store = stores.at(t.store);
      std::vector<rsse::Bytes> payloads;
      auto search = [&](const rsse::sse::KeywordKeys& k) {
        for (rsse::Bytes& p : store.Search(k, nullptr, &stats)) {
          payloads.push_back(std::move(p));
        }
      };
      for (const rsse::GgmDprf::Token& tok : t.ggm) {
        {
          ScopedSpan span(&trace, "dprf.expand");
          rsse::GgmDprf::ExpandInto(tok, leaf_buf);
        }
        std::vector<rsse::sse::KeywordKeys> keys(leaf_buf.size());
        {
          ScopedSpan span(&trace, "sse.kdf");
          for (size_t l = 0; l < leaf_buf.size(); ++l) {
            rsse::sse::KeysFromSharedSecretInto(
                rsse::ConstByteSpan(leaf_buf[l].data(), leaf_buf[l].size()),
                keys[l]);
          }
        }
        {
          ScopedSpan span(&trace, "shard.search");
          for (const auto& k : keys) search(k);
        }
        leaves += static_cast<double>(leaf_buf.size());
        tokens_searched += static_cast<double>(leaf_buf.size());
      }
      if (!t.keyword.empty()) {
        ScopedSpan span(&trace, "shard.search");
        for (const auto& k : t.keyword) search(k);
      }
      tokens_searched += static_cast<double>(t.keyword.size());
      Items items;
      for (const rsse::Bytes& p : payloads) items.push_back(Item(p));
      std::sort(items.begin(), items.end());
      if (items != wire_items[i][round]) {
        Fail("replay mismatch: in-process layers vs wire");
      }
      // Without updates the traced phase's remote answers are the same
      // store state as the wire replay's.
      if (w_.update_bps == 0) {
        Items remote;
        for (const rsse::Bytes& p : q.answers[round].payloads) {
          remote.push_back(Item(p));
        }
        std::sort(remote.begin(), remote.end());
        if (remote != items) Fail("replay mismatch: traced remote vs layers");
      }
    }
  }

  // The scheme's own LocalBackend over the same token sets. Its stores
  // hold the setup alone, so with updates its answers lack the inserts.
  rsse::SearchBackend& local = scheme_->local_backend();
  for (size_t i = 0; i < recorded.size(); ++i) {
    const RecordedQuery& q = *recorded[i];
    std::vector<rsse::Result<rsse::ResolvedIds>> answers;
    {
      ScopedSpan span(&trace, "rsse.local_resolve");
      for (const rsse::TokenSet& t : q.rounds) answers.push_back(local.Resolve(t));
    }
    for (size_t round = 0; round < q.rounds.size(); ++round) {
      const auto& resolved = answers[round];
      if (!resolved.ok()) {
        Fail("local resolve: " + resolved.status().ToString());
        continue;
      }
      Items items;
      for (const rsse::Bytes& p : resolved->payloads) items.push_back(Item(p));
      std::sort(items.begin(), items.end());
      const auto& wire = wire_items[i][round];
      const bool same =
          w_.update_bps == 0
              ? items == wire
              : std::includes(wire.begin(), wire.end(), items.begin(),
                              items.end());
      if (!same) Fail("replay mismatch: LocalBackend vs wire");
    }
  }
  self.Add(trace);

  const double nq = static_cast<double>(recorded.size());
  auto per = [](double a, double b) { return b > 0 ? a / b : 0; };
  m["wire.response_bytes_per_query"] = bytes / nq;
  m["wire.frames_per_query"] = frames / nq;
  m["wire.decode_ns_per_byte"] = per(self.Ns("wire.decode"), bytes);
  m["server.search_ms"] = per(search_ns, rounds) / 1e6;
  m["dprf.leaves_per_query"] = leaves / nq;
  m["dprf.expand_ns_per_leaf"] = per(self.Ns("dprf.expand"), leaves);
  m["sse.kdf_ns_per_leaf"] = per(self.Ns("sse.kdf"), leaves);
  m["shard.search_us_per_token"] =
      per(self.Ns("shard.search"), tokens_searched) / 1e3;
  m["shard.probes_per_token"] =
      per(static_cast<double>(stats.probes), tokens_searched);
  m["shard.hit_ratio"] = per(static_cast<double>(stats.decrypts),
                             static_cast<double>(stats.probes));
  m["shard.decrypts_per_query"] = static_cast<double>(stats.decrypts) / nq;
  m["rsse.local_resolve_ms"] = self.MeanNs("rsse.local_resolve") / 1e6;
  if (w_.update_bps > 0) {
    m["shard.open_mapped_ms"] = self.Ns("shard.open_mapped") / 1e6;
    m["shard.insert_ns_per_entry"] = per(self.Ns("shard.insert"), inserted);
  }
}

void Bench::PersistMetrics(SelfTotals& self, std::map<std::string, double>& m) {
  const fs::path data = fs::path(workdir_) / "data";
  const fs::path wal = data / "store-0.wal";
  const double wal_bytes =
      fs::exists(wal) ? static_cast<double>(fs::file_size(wal)) : 0;
  m["persist.wal_bytes_per_user_byte"] =
      update_user_bytes_ > 0 ? wal_bytes / update_user_bytes_ : 0;
  // Recovery of a copy of the data directory, in process.
  const fs::path copy = fs::path(workdir_) / "recover-copy";
  fs::remove_all(copy);
  fs::copy(data, copy, fs::copy_options::recursive);
  rsse::server::ServerOptions options;
  options.data_dir = copy.string();
  options.mmap_stores = w_.mmap ? 1 : 0;
  rsse::server::EmmServer server(options);
  TraceBuf trace;
  rsse::Status s;
  {
    ScopedSpan span(&trace, "persist.recover");
    s = server.RecoverStores();
  }
  if (!s.ok()) Fail("recover copy: " + s.ToString());
  self.Add(trace);
  m["persist.recover_ms"] = self.Ns("persist.recover") / 1e6;
  m["persist.wal_records_replayed"] =
      static_cast<double>(server.recovery_stats().wal_records_applied);
}

std::string Json(double v) {
  if (!std::isfinite(v)) return "-1";
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

int Bench::Run() {
  workdir_ = (fs::path(args_.workdir) /
              (std::string(w_.name) + "-" + std::to_string(::getpid())))
                 .string();
  fs::remove_all(workdir_);
  fs::create_directories(fs::path(workdir_) / "data");
  daemon_ = std::make_unique<Daemon>(PERFBENCH_SERVERD, DaemonArgs(),
                                     (fs::path(workdir_) / "serverd.log").string());
  rsse::Status s = daemon_->Start();
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", s.ToString().c_str());
    return 1;
  }
  if (w_.readers > nproc_) {
    std::fprintf(stderr, "perfbench: needs %d cores\n", w_.readers);
    return 1;
  }
  for (int t = 0; t < w_.readers; ++t) conns_.push_back(Connect());

  std::map<std::string, double> e2e;   // end-to-end metrics
  std::map<std::string, double> layer; // per-layer metrics
  SelfTotals self;

  TraceBuf setup_trace;
  Setup(args_.trace ? &setup_trace : nullptr);
  if (scheme_ == nullptr || failed_.load() > 0) {
    std::fprintf(stderr, "perfbench: setup failed: %s\n",
                 fail_notes_.empty() ? "" : fail_notes_[0].c_str());
    return 1;
  }
  self.Add(setup_trace);

  // A WAL backlog before the writer starts, so that replay, not process
  // start, dominates recovery: kPrefillBatches batches, 16 per frame.
  if (w_.update_bps > 0) {
    for (uint64_t b = 0; b < kPrefillBatches; b += 16) {
      if (!Update(conns_[0]->client, b, 16)) break;
    }
  }

  // Warm-up at the fixed rate, unrecorded: the first second after a setup
  // pays page faults and allocator growth that no later query does.
  FixedPhase(kWarmupSeconds, false);
  for (auto& c : conns_) c->totals = QueryTotals{};

  // The writer runs paced beside the readers through the fixed-rate
  // phase (both halves of it when traced). It stops before the capacity
  // search: saturated readers starve it of the store lock, and its fsync
  // stalls would decide the search instead of the read path.
  const double measured = args_.seconds;
  const double fixed_seconds = measured * 0.6;
  std::thread writer;
  std::unique_ptr<Conn> writer_conn;
  if (w_.update_bps > 0) {
    writer_conn = Connect();
    writer = std::thread([&] {
      update_samples_ =
          RunPaced(1, w_.update_bps, fixed_seconds,
                   [&](int, uint64_t k, Clock::time_point& done) {
                     const bool ok =
                         Update(writer_conn->client, kPrefillBatches + k, 1);
                     done = Clock::now();
                     return ok;
                   });
    });
  }

  QueryTotals totals;
  std::vector<RequestSample> fixed;
  if (!args_.trace) {
    std::vector<double> cpu_per_op;
    fixed = FixedPhase(fixed_seconds, false, &cpu_per_op);
    e2e["server_cpu_ms_per_op"] = Percentile(cpu_per_op, 50);
    for (const auto& c : conns_) totals.Add(c->totals);
  } else {
    // Untraced then traced at the same fixed rate: the difference of the
    // medians is the tracing overhead.
    const std::vector<RequestSample> plain =
        FixedPhase(fixed_seconds / 2, false);
    for (auto& c : conns_) {
      c->record_cap = 150 / static_cast<size_t>(w_.readers);
      c->totals = QueryTotals{};
    }
    fixed = FixedPhase(fixed_seconds / 2, true);
    for (const auto& c : conns_) totals.Add(c->totals);
    layer["trace.overhead_ms"] = Percentile(Latencies(fixed), 50) -
                                 Percentile(Latencies(plain), 50);
  }
  if (writer.joinable()) writer.join();
  writer_conn.reset();
  const double capacity = args_.trace ? 0 : CapacityPhase(measured * 0.4);

  const double nq = std::max<double>(1, static_cast<double>(totals.queries));
  e2e["token_bytes_per_query"] = static_cast<double>(totals.token_bytes) / nq;
  e2e["index_bytes_per_entry"] =
      static_cast<double>(scheme_->IndexSizeBytes()) / static_cast<double>(w_.n);
  e2e["server_peak_rss_mb"] = daemon_->PeakRssMiB();
  const double live = static_cast<double>(w_.n) +
                      static_cast<double>(batches_acked_.load()) * kInsertsPerBatch;
  e2e["disk_bytes_per_entry"] = DiskBytes() / live;

  if (args_.trace) {
    for (const auto& c : conns_) self.Add(c->trace);
    Replay(self, layer);
    if (w_.update_bps > 0) {
      PersistMetrics(self, layer);
    } else {
      for (const char* k : {"shard.insert_ns_per_entry", "shard.open_mapped_ms",
                            "persist.wal_bytes_per_user_byte",
                            "persist.recover_ms",
                            "persist.wal_records_replayed"}) {
        layer[k] = 0;
      }
    }
  }

  // SIGKILL and restart: the first correct answer after the kill.
  std::vector<double> recovery;
  const int cycles = args_.trace ? 1 : 5;
  for (int i = 0; i < cycles; ++i) recovery.push_back(RecoveryCycle());
  if (w_.update_bps > 0) VerifyAllInserts();
  daemon_->Stop(SIGKILL);

  e2e["setup_s"] = Percentile(setup_s_, 50);
  e2e["query_p50_ms"] = WindowedMedian(fixed, kWindowSeconds);

  if (args_.trace) {
    const double setups = static_cast<double>(std::max<size_t>(1, setup_s_.size()));
    layer["rsse.build_s"] = self.Ns("rsse.build") / setups / 1e9;
    layer["rsse.export_s"] = self.Ns("rsse.export") / setups / 1e9;
    layer["server.install_s"] = self.Ns("server.install") / setups / 1e9;
    layer["rsse.trapdoor_us"] = self.Ns("rsse.trapdoor") / nq / 1e3;
    layer["rsse.refine_us"] = self.Ns("rsse.refine") / nq / 1e3;
    layer["rsse.query_self_us"] = self.Ns("query") / nq / 1e3;
    layer["server.roundtrip_ms"] = self.MeanNs("server.roundtrip") / 1e6;
    layer["server.transport_ms"] =
        layer["server.roundtrip_ms"] - layer["server.search_ms"];
    layer["cover.nodes_per_query"] = static_cast<double>(totals.token_count) / nq;
    layer["cover.false_positive_ratio"] =
        totals.ids_in_range > 0
            ? static_cast<double>(totals.ids_before_refine) /
                  static_cast<double>(totals.ids_in_range)
            : 0;
    layer["loadgen.lateness_p99_ms"] = Percentile(Lateness(fixed), 99);
  }

  // Human-readable report, then the result line.
  const uint64_t attempted = std::max<uint64_t>(1, attempted_.load());
  const uint64_t failed = failed_.load();
  // Metrics printed here only: too noisy on a shared machine to gate, or
  // measured on one workload only (updates). The tail percentiles come with
  // the percentile rule's highest reportable one; capacity with its steps.
  std::printf("perfbench %s seed=%llu trace=%d\n", w_.name,
              static_cast<unsigned long long>(args_.seed), args_.trace ? 1 : 0);
  std::printf("  query_p95_ms %.4f, query_p99_ms %.4f over %zu fixed-rate "
              "samples (highest reportable percentile: p%g)\n",
              Percentile(Latencies(fixed), 95), Percentile(Latencies(fixed), 99),
              fixed.size(), HighestReportablePercentile(fixed.size()));
  if (!args_.trace) std::printf("  capacity_qps %.4f\n", capacity);
  std::printf("  recovery_ms %.4f (median of %zu SIGKILL-restart cycles; "
              "min %.4f, max %.4f)\n",
              Percentile(recovery, 50), recovery.size(),
              *std::min_element(recovery.begin(), recovery.end()),
              *std::max_element(recovery.begin(), recovery.end()));
  std::printf("  generator lateness p50 %.3f ms, p99 %.3f ms\n",
              Percentile(Lateness(fixed), 50), Percentile(Lateness(fixed), 99));
  if (!update_samples_.empty()) {
    std::printf("  update_p50_ms %.4f, update_p99_ms %.4f over %zu Update "
                "batches of %zu\n",
                Percentile(Latencies(update_samples_), 50),
                Percentile(Latencies(update_samples_), 99),
                update_samples_.size(), kInsertsPerBatch);
  }
  std::printf("  fail_ratio %.6f (%llu/%llu)\n",
              static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const std::string& note : fail_notes_) {
    std::printf("  failure: %s\n", note.c_str());
  }
  // The result line; run.py attaches each metric's unit from
  // BENCHMARK.json.
  const auto& out = args_.trace ? layer : e2e;
  std::ostringstream json;
  json << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : out) {
    std::printf("  %-34s %s\n", name.c_str(), Json(value).c_str());
    json << (first ? "" : ", ") << "\"" << name << "\": " << Json(value);
    first = false;
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  fs::remove_all(workdir_);
  return failed == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "workload") {
      a.workload = value;
    } else if (key == "seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "trace") {
      a.trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else if (key == "workdir") {
      a.workdir = value;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) return false;
  }
  return a.seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // A closed stdout must not kill the generator before it reaps the daemon.
  ::signal(SIGPIPE, SIG_IGN);
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_loadgen --workload=<name> --seed=<n> "
                 "--seconds=<s> --trace=<0|1> --workdir=<dir>\n");
    return 2;
  }
  for (const perfbench::Workload& w : perfbench::kWorkloads) {
    if (args.workload == w.name) {
      perfbench::Bench bench(w, args);
      return bench.Run();
    }
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
               args.workload.c_str());
  return 2;
}
