#include "src/serve/pool.h"

#include <algorithm>
#include <utility>

#include "src/net/frame.h"
#include "src/serve/placement.h"
#include "src/serve/stats.h"
#include "src/serve/tiered.h"
#include "src/util/hashing.h"
#include "src/util/mmap_file.h"

namespace grepair {
namespace serve {

namespace {

// Redial backoff bounds: the gate starts at kBackoffBaseMs after the
// first failed dial and doubles up to kBackoffMaxMs, with jitter in
// [delay/2, delay].
constexpr int kBackoffBaseMs = 25;
constexpr int kBackoffMaxMs = 2000;

// The number of connections a pool opens, and so of open-time warming
// workers: pool_size clamped to [1, 64].
int PoolWidth(int pool_size) { return std::max(1, std::min(64, pool_size)); }

}  // namespace

RemoteShardSource::RemoteShardSource(std::string peer, std::string corpus,
                                     const Options& options)
    : peer_(std::move(peer)),
      corpus_(std::move(corpus)),
      io_timeout_ms_(options.io_timeout_ms),
      gate_jitter_(HashBytes(
          reinterpret_cast<const uint8_t*>(peer_.data()), peer_.size())) {
  int pool = PoolWidth(options.pool_size);
  conns_.reserve(pool);
  for (int i = 0; i < pool; ++i) {
    conns_.push_back(std::make_unique<Conn>());
  }
}

Result<std::shared_ptr<RemoteShardSource>> RemoteShardSource::Connect(
    const std::string& host_port, const std::string& corpus,
    const Options& options) {
  auto source = std::shared_ptr<RemoteShardSource>(
      new RemoteShardSource(host_port, corpus, options));
  // The first slot's dial doubles as the directory fetch: the
  // handshake's kCorpusDir response is parsed into directory_ (the
  // shard_lengths_ table is still empty, so no cross-check yet).
  {
    Conn* first = source->conns_[0].get();
    MutexLock lock(first->mu);
    GREPAIR_RETURN_IF_ERROR(source->Dial(first));
  }
  source->shard_lengths_.reserve(source->directory_.rows.size());
  for (const auto& row : source->directory_.rows) {
    source->shard_lengths_.push_back(row.length);
  }
  return source;
}

shard::ParsedDirectory RemoteShardSource::TakeDirectory() {
  return std::move(directory_);
}

Status RemoteShardSource::GateCheck() {
  MutexLock lock(gate_mu_);
  auto now = std::chrono::steady_clock::now();
  if (now < gate_next_dial_) {
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    gate_next_dial_ - now)
                    .count();
    return Status::Unavailable(
        "not redialing " + peer_ + " for another " + std::to_string(left) +
        "ms (backoff after " + std::to_string(gate_fail_streak_) +
        " consecutive dial failure(s); last: " + gate_last_error_ + ")");
  }
  return Status::OK();
}

void RemoteShardSource::GateRecordFailure(const std::string& message) {
  MutexLock lock(gate_mu_);
  gate_last_error_ = message;
  ++gate_fail_streak_;
  int shift = std::min(gate_fail_streak_ - 1, 20);
  int64_t delay = static_cast<int64_t>(kBackoffBaseMs) << shift;
  delay = std::min<int64_t>(delay, kBackoffMaxMs);
  // Jitter in [delay/2, delay] so a fleet of frontends does not probe
  // a recovering server in lockstep.
  int64_t jittered =
      delay / 2 +
      static_cast<int64_t>(gate_jitter_.UniformBounded(
          static_cast<uint64_t>(delay - delay / 2 + 1)));
  gate_next_dial_ = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(jittered);
}

void RemoteShardSource::GateRecordSuccess() {
  MutexLock lock(gate_mu_);
  gate_fail_streak_ = 0;
  gate_next_dial_ = std::chrono::steady_clock::time_point{};
  gate_last_error_.clear();
}

Status RemoteShardSource::Dial(Conn* conn) {
  GREPAIR_RETURN_IF_ERROR(GateCheck());
  // Handshake, then open (or re-resolve) the corpus; every reply ships
  // the raw directory bytes.
  auto dialed = DialServer(peer_, io_timeout_ms_);
  Result<CorpusDirReply> opened =
      dialed.ok()
          ? OpenCorpus(&dialed.value(), peer_,
                       next_req_id_.fetch_add(1, std::memory_order_relaxed),
                       corpus_)
          : Result<CorpusDirReply>(dialed.status());
  if (!opened.ok()) {
    // Only transport-level failures close the gate: a served error
    // (unknown corpus, say) means the server is alive and answering.
    if (opened.status().code() == StatusCode::kUnavailable) {
      GateRecordFailure(opened.status().message());
    }
    return opened.status();
  }
  GateRecordSuccess();
  CorpusDirReply& reply = opened.value();
  if (shard_lengths_.empty()) {
    // First dial (single-threaded Connect): parse the directory with
    // the hardened parser, and keep the verbatim wire bytes so the
    // caller can persist them for offline warm opens.
    auto parsed =
        shard::ParseV2Directory(SpanOf(reply.raw_directory), reply.dir_off);
    if (!parsed.ok()) return parsed.status();
    directory_ = std::move(parsed).ValueOrDie();
    raw_directory_ = std::move(reply.raw_directory);
    raw_dir_off_ = reply.dir_off;
  } else if (reply.raw_directory != raw_directory_ ||
             reply.dir_off != raw_dir_off_) {
    // A redial that ships the bytes connect parsed needs no parse.
    // Other bytes must still describe the corpus this rep was built
    // over — a restarted server serving different bytes under the
    // same name must not slip through (the per-shard checksums would
    // catch it at fault time, but catch it with a better story here).
    auto parsed =
        shard::ParseV2Directory(SpanOf(reply.raw_directory), reply.dir_off);
    if (!parsed.ok()) return parsed.status();
    const auto& rows = parsed.value().rows;
    bool same = rows.size() == shard_lengths_.size();
    for (size_t i = 0; same && i < rows.size(); ++i) {
      same = rows[i].length == shard_lengths_[i];
    }
    if (!same) {
      return Status::Corruption(
          "corpus \"" + corpus_ + "\" on " + peer_ +
          " changed shape since connect (server restarted with "
          "different data?); reopen the remote container");
    }
  }
  stat_dials_.fetch_add(1, std::memory_order_relaxed);
  if (conn->ever_connected) {
    stat_redials_.fetch_add(1, std::memory_order_relaxed);
  }
  conn->socket = std::move(dialed).ValueOrDie();
  conn->ever_connected = true;
  conn->corpus_id = reply.corpus_id;
  return Status::OK();
}

Result<ByteSpan> RemoteShardSource::FetchShard(size_t shard,
                                               std::vector<uint8_t>* owned) {
  if (shard >= shard_lengths_.size()) {
    return Status::Internal("shard index " + std::to_string(shard) +
                            " out of range for remote source");
  }
  Conn* conn =
      conns_[round_robin_.fetch_add(1, std::memory_order_relaxed) %
             conns_.size()]
          .get();
  MutexLock lock(conn->mu);
  uint64_t in_flight =
      stat_in_flight_.fetch_add(1, std::memory_order_relaxed) + 1;
  uint64_t peak = stat_peak_in_flight_.load(std::memory_order_relaxed);
  while (in_flight > peak &&
         !stat_peak_in_flight_.compare_exchange_weak(
             peak, in_flight, std::memory_order_relaxed)) {
  }
  auto fetched = FetchOnSlot(conn, shard, owned);
  stat_in_flight_.fetch_sub(1, std::memory_order_relaxed);
  return fetched;
}

Result<ByteSpan> RemoteShardSource::FetchOnSlot(Conn* conn, size_t shard,
                                                std::vector<uint8_t>* owned) {
  // Every request is a pure read, so a transport failure is retried
  // exactly once on a fresh connection (servers reap idle peers; a
  // redial-and-retry is the difference between surviving that and a
  // permanently broken rep).
  Status transport = Status::OK();
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (!conn->socket.valid()) {
      Status up = Dial(conn);
      if (!up.ok()) return up;  // dial failures already name the peer
    }
    std::vector<uint8_t> operands;
    PutU32LE(conn->corpus_id, &operands);
    PutU32LE(static_cast<uint32_t>(shard), &operands);
    auto reply = CallServer(
        &conn->socket, peer_, net::kGetShard2,
        next_req_id_.fetch_add(1, std::memory_order_relaxed),
        SpanOf(operands), net::kShard2);
    if (!reply.ok()) {
      StatusCode code = reply.status().code();
      // A served error is a per-request failure: the stream stays in
      // sync, later requests may succeed. Transport failures and
      // corruption leave it unusable.
      if (code != StatusCode::kUnavailable &&
          code != StatusCode::kCorruption) {
        return reply.status();
      }
      conn->socket.Close();
      if (code == StatusCode::kCorruption) return reply.status();
      transport = reply.status();
      continue;
    }
    ByteSource body(SpanOf(reply.value().body), "shard frame body");
    uint32_t echoed_corpus = 0;
    uint32_t echoed_shard = 0;
    GREPAIR_RETURN_IF_ERROR(body.Skip(8));  // the request id just checked
    GREPAIR_RETURN_IF_ERROR(body.ReadU32LE(&echoed_corpus));
    GREPAIR_RETURN_IF_ERROR(body.ReadU32LE(&echoed_shard));
    if (echoed_corpus != conn->corpus_id || echoed_shard != shard) {
      return Status::Corruption(
          "shard server returned corpus " + std::to_string(echoed_corpus) +
          " shard " + std::to_string(echoed_shard) + " where corpus " +
          std::to_string(conn->corpus_id) + " shard " +
          std::to_string(shard) + " was requested");
    }
    ByteSpan payload = body.PeekRemaining();
    // Length is re-checked (and the payload checksum verified) by the
    // caller against the directory; the early check here just gives
    // the error a transport-level voice.
    if (payload.size != shard_lengths_[shard]) {
      return Status::Corruption(
          "shard " + std::to_string(shard) + " payload is " +
          std::to_string(payload.size) + " byte(s), directory says " +
          std::to_string(shard_lengths_[shard]));
    }
    stat_fetches_.fetch_add(1, std::memory_order_relaxed);
    stat_bytes_.fetch_add(payload.size, std::memory_order_relaxed);
    owned->assign(payload.begin(), payload.end());
    return SpanOf(*owned);
  }
  return transport;
}

void RemoteShardSource::AddStats(api::QueryStats* stats) const {
  stats->remote_fetches += stat_fetches_.load(std::memory_order_relaxed);
  stats->remote_bytes += stat_bytes_.load(std::memory_order_relaxed);
  stats->pool_dials += stat_dials_.load(std::memory_order_relaxed);
  stats->pool_redials += stat_redials_.load(std::memory_order_relaxed);
  uint64_t peak = stat_peak_in_flight_.load(std::memory_order_relaxed);
  if (peak > stats->pool_peak_in_flight) stats->pool_peak_in_flight = peak;
}

Status SplitTarget(const std::string& target, std::string* host_port,
                   std::string* corpus) {
  size_t slash = target.find('/');
  if (slash == std::string::npos) {
    *host_port = target;
    corpus->clear();
  } else {
    *host_port = target.substr(0, slash);
    *corpus = target.substr(slash + 1);
    if (corpus->find('/') != std::string::npos) {
      return Status::InvalidArgument(
          "remote target \"" + target +
          "\" has more than one '/'; expected host:port[/corpus]");
    }
    // The corpus name also names its SSD-tier directory.
    if (*corpus == "." || *corpus == "..") {
      return Status::InvalidArgument("remote target \"" + target +
                                     "\" names corpus \"" + *corpus +
                                     "\", which is not a file name");
    }
  }
  std::string host;
  uint16_t port = 0;
  return ParseHostPort(*host_port, &host, &port);
}

namespace {

// Every shard fault against a peer we could not reach. A warm SSD
// tier stacked on top answers from disk; only a cache miss surfaces
// this status.
class OfflineShardSource : public shard::ShardSource {
 public:
  explicit OfflineShardSource(std::string peer) : peer_(std::move(peer)) {}

  const char* kind() const override { return "offline"; }

  Result<ByteSpan> FetchShard(size_t shard,
                              std::vector<uint8_t>* owned) override {
    (void)owned;
    return Status::Unavailable(
        "cannot reach " + peer_ + " and shard " + std::to_string(shard) +
        " is not in the local SSD tier");
  }

 private:
  std::string peer_;
};

// Picks `corpus`'s record out of a stats snapshot (by name, or the
// sole corpus when the name is empty); null when absent.
const CorpusServeStats* FindCorpusStats(const ServerStatsSnapshot& snapshot,
                                        const std::string& corpus) {
  if (corpus.empty()) {
    return snapshot.corpora.size() == 1 ? &snapshot.corpora[0] : nullptr;
  }
  for (const CorpusServeStats& record : snapshot.corpora) {
    if (record.name == corpus) return &record;
  }
  return nullptr;
}

}  // namespace

Result<std::unique_ptr<shard::ShardedRep>> OpenRemoteContainer(
    const std::string& target, const OpenOptions& options) {
  std::string host_port;
  std::string corpus;
  GREPAIR_RETURN_IF_ERROR(SplitTarget(target, &host_port, &corpus));
  RemoteShardSource::Options pool_options;
  pool_options.io_timeout_ms = options.io_timeout_ms;
  pool_options.pool_size = options.pool_size;

  // The persisted sidecar, when present, carries last session's
  // histogram — the open-time warming signal for a cold process.
  DirSidecar prior;
  bool have_prior = false;
  if (!options.ssd_cache_dir.empty()) {
    auto loaded = LoadDirSidecar(
        DirSidecarPath(options.ssd_cache_dir, corpus));
    if (loaded.ok()) {
      prior = std::move(loaded).ValueOrDie();
      have_prior = true;
    }
  }

  auto remote = RemoteShardSource::Connect(host_port, corpus, pool_options);

  shard::ParsedDirectory dir;
  std::shared_ptr<shard::ShardSource> stack;
  bool online = remote.ok();
  DirSidecar sidecar;  // what gets (re)persisted this open
  bool save_sidecar = false;
  if (online) {
    std::shared_ptr<RemoteShardSource> source =
        std::move(remote).ValueOrDie();
    dir = source->TakeDirectory();
    // Fail closed on a stale sidecar: the persisted directory must be
    // byte-equivalent (checksum) to what the server just shipped. A
    // corpus rebuilt in place keeps the sidecar path and often the
    // shard count, so the histogram size/epoch gate below is not
    // enough — warm state of a replaced corpus must never be trusted.
    if (have_prior &&
        HashBytes(prior.raw_directory.data(), prior.raw_directory.size()) !=
            dir.dir_checksum) {
      have_prior = false;
    }
    if (!options.ssd_cache_dir.empty()) {
      save_sidecar = true;
      sidecar.dir_off = source->raw_dir_off();
      sidecar.raw_directory = source->raw_directory();
    }
    stack = std::move(source);
  } else if (remote.status().code() == StatusCode::kUnavailable &&
             have_prior) {
    // The peer is down, but a tier may be warm: reopen over the
    // persisted directory; any shard the tier does not hold stays
    // kUnavailable.
    auto cached = shard::ParseV2Directory(SpanOf(prior.raw_directory),
                                          prior.dir_off);
    if (!cached.ok()) return remote.status();  // the dial is the story
    dir = std::move(cached).ValueOrDie();
    stack = std::make_shared<OfflineShardSource>(host_port);
  } else {
    return remote.status();
  }

  // Pick the histogram to warm from: a fresh STATS snapshot from
  // the server when online (one extra round-trip, gated on anyone
  // wanting it), else the sidecar's. Between the two, the higher
  // epoch — a freshly restarted server's near-empty histogram must
  // not shadow a rich persisted one.
  std::vector<uint64_t> histogram;
  uint64_t histogram_epoch = 0;
  bool want_histogram = options.warm_from_histogram || save_sidecar;
  if (online && want_histogram) {
    auto stats = FetchServerStats(host_port, options.io_timeout_ms);
    if (stats.ok()) {
      const CorpusServeStats* record =
          FindCorpusStats(stats.value(), corpus);
      if (record != nullptr) {
        histogram = record->shard_hits;
        histogram_epoch = record->histogram_epoch;
      }
    }
  }
  if (have_prior && prior.histogram.size() == dir.rows.size() &&
      (histogram.empty() || prior.histogram_epoch > histogram_epoch)) {
    histogram = prior.histogram;
    histogram_epoch = prior.histogram_epoch;
  }
  if (histogram.size() != dir.rows.size()) histogram.clear();

  if (!options.ssd_cache_dir.empty()) {
    // The tier plans by the same histogram: it owns one directory per
    // corpus, next to that corpus' sidecar.
    TieredShardSource::Options tier_options;
    tier_options.cache_dir = CorpusCacheDir(options.ssd_cache_dir, corpus);
    tier_options.max_bytes = options.ssd_cache_bytes;
    auto tiered = TieredShardSource::Create(std::move(stack), dir.rows,
                                            histogram, tier_options);
    if (!tiered.ok()) return tiered.status();
    stack = std::move(tiered).ValueOrDie();
    if (save_sidecar) {
      // After Create so the cache directory exists.
      sidecar.histogram = histogram;
      sidecar.histogram_epoch = histogram_epoch;
      SaveDirSidecar(DirSidecarPath(options.ssd_cache_dir, corpus),
                     sidecar);
    }
  }
  auto rep = shard::ShardedRep::OpenFromSource(std::move(stack),
                                               std::move(dir));
  if (!rep.ok()) return rep.status();
  std::vector<size_t> ranked = RankByHeat(histogram);
  if (options.warm_from_histogram && !ranked.empty()) {
    // Open-time warming: fault the known-hot shards through the stack
    // (SSD tier first, network behind it), one worker per pool
    // connection, before the open returns, so the first real queries
    // find them resident.
    rep.value()->store().Prefetch(ranked, PoolWidth(options.pool_size));
  }
  return rep;
}

}  // namespace serve
}  // namespace grepair
