#include "sync/vertex_fetcher.h"

#include <algorithm>
#include <set>

#include "common/log.h"
#include "sync/wal.h"

namespace clandag {
namespace {

// First-request delay for parents discovered from a fetched vertex (the
// node is actively catching up; no reason to wait out the grace period).
constexpr TimeMicros kResponseFastDelay = Millis(20);
// Wants carried by one kFetchRequest (the timed one plus piggybacked others).
constexpr uint32_t kMaxWantsPerRequest = 64;
// Snapshot catch-up: a chunk is re-requested after this timeout plus the
// usual backoff, the transfer is abandoned after kMaxSnapshotChunkAttempts
// misses of one chunk, and offers above kMaxAcceptedSnapshotBytes are refused.
constexpr TimeMicros kSnapshotChunkTimeout = Millis(800);
constexpr uint32_t kMaxSnapshotChunkAttempts = 8;
constexpr uint64_t kMaxAcceptedSnapshotBytes = 64ull << 20;

}  // namespace

VertexFetcher::VertexFetcher(Runtime& runtime, const DagStore& dag, FetcherConfig config)
    : runtime_(runtime),
      dag_(dag),
      config_(config),
      rng_(config.seed ^ ((runtime.id() + 1) * 0x9e3779b97f4a7c15ULL)) {}

TimeMicros VertexFetcher::NextBackoff(uint32_t attempt) {
  const uint32_t shift = std::min(attempt, 16u);
  TimeMicros backoff = std::min(config_.retry_cap, config_.retry_base << shift);
  if (config_.retry_jitter > 0.0) {
    const double j = config_.retry_jitter;
    backoff = static_cast<TimeMicros>(static_cast<double>(backoff) *
                                      (1.0 - j + 2.0 * j * rng_.NextDouble()));
  }
  return std::max<TimeMicros>(backoff, 1);
}

bool VertexFetcher::Satisfied(Round round, NodeId source) const {
  return dag_.StatusOf(round, source) != VertexStatus::kUnknown;
}

void VertexFetcher::AddBlocked(Vertex v, const Digest& digest) {
  const Key key{v.round, v.source};
  if (blocked_.count(key) != 0 || dag_.Has(v.round, v.source)) {
    return;
  }
  if (v.round > 0) {
    for (const StrongEdge& e : v.strong_edges) {
      if (!Satisfied(v.round - 1, e.source)) {
        Register(v.round - 1, e.source, e.digest);
      }
    }
  }
  for (const WeakEdge& e : v.weak_edges) {
    if (!Satisfied(e.round, e.source)) {
      Register(e.round, e.source, e.digest);
    }
  }
  // bounded: one entry per completed-but-parentless vertex; PruneBelow and admission both erase.
  blocked_.emplace(key, Blocked{std::move(v), digest});
}

void VertexFetcher::Register(Round round, NodeId source, const Digest& expected) {
  const Key key{round, source};
  // bounded: one entry per missing (round, source); resolved/pruned entries are erased and
  // max_attempts gives up.
  auto [it, inserted] = missing_.try_emplace(key);
  if (!inserted) {
    return;  // Already being fetched (dedup across blocked children).
  }
  it->second.expected = expected;
  // Deterministic per-key rotation offset spreads first requests over peers.
  it->second.peer_rr = static_cast<uint32_t>(runtime_.id() + round + source);
  ArmTimer(round, source, in_response_ ? kResponseFastDelay : config_.initial_delay);
}

void VertexFetcher::ArmTimer(Round round, NodeId source, TimeMicros delay) {
  runtime_.Schedule(delay, [this, round, source] { OnTimer(round, source); });
}

void VertexFetcher::OnTimer(Round round, NodeId source) {
  const Key key{round, source};
  auto it = missing_.find(key);
  if (it == missing_.end()) {
    return;  // Resolved or pruned; timer is stale.
  }
  if (Satisfied(round, source)) {
    missing_.erase(it);
    return;  // Arrived through the normal broadcast path.
  }
  Missing& entry = it->second;
  if (entry.attempts >= config_.max_attempts) {
    ++stats_.fetches_abandoned;
    CLANDAG_WARN("node %u: abandoning fetch of (%llu, %u) after %u attempts", runtime_.id(),
                 static_cast<unsigned long long>(round), source, entry.attempts);
    Abandon(key);
    return;
  }
  if (entry.attempts > 0) {
    ++stats_.retries;
  }
  SendRequest(key, entry);
  const TimeMicros backoff = NextBackoff(entry.attempts);
  ++entry.attempts;
  ArmTimer(round, source, backoff);
}

void VertexFetcher::SendRequest(const Key& key, Missing& entry) {
  const uint32_t n = runtime_.num_nodes();
  if (n <= 1) {
    return;
  }
  // Rotate over all other peers: any 2f+1 completed the RBC, so after a few
  // rotations an honest holder is hit.
  NodeId target = static_cast<NodeId>(entry.peer_rr++ % n);
  if (target == runtime_.id()) {
    target = static_cast<NodeId>(entry.peer_rr++ % n);
  }
  FetchRequestMsg req;
  req.low_watermark = watermark_ ? watermark_() : 0;
  req.wants.push_back(VertexRef{key.first, key.second});
  // Opportunistically piggyback other outstanding wants (their own timers
  // and attempt counters are untouched; an early answer just resolves them).
  for (const auto& [other, unused] : missing_) {
    if (req.wants.size() >= kMaxWantsPerRequest) {
      break;
    }
    if (other != key) {
      req.wants.push_back(VertexRef{other.first, other.second});
    }
  }
  ++stats_.requests_sent;
  runtime_.Send(target, kSyncFetchRequest, req.Encode());
}

void VertexFetcher::OnResponse(NodeId from, const Bytes& payload) {
  auto msg = FetchResponseMsg::Decode(payload);
  if (!msg.has_value()) {
    CLANDAG_DEBUG("node %u: malformed fetch response from %u", runtime_.id(), from);
    return;
  }
  ++stats_.responses_received;
  // Children first (descending round): delivering a child registers its
  // missing parents, so the ancestors later in this pass find a matching
  // expected digest and verify against it.
  std::sort(msg->vertices.begin(), msg->vertices.end(),
            [](const Vertex& a, const Vertex& b) { return a.round > b.round; });
  in_response_ = true;
  for (Vertex& v : msg->vertices) {
    const Key key{v.round, v.source};
    auto it = missing_.find(key);
    if (it == missing_.end()) {
      continue;  // Unsolicited or already satisfied; ignore.
    }
    if (Satisfied(v.round, v.source)) {
      missing_.erase(it);
      continue;
    }
    const Digest expected = it->second.expected;
    if (v.ComputeDigest() != expected) {
      ++stats_.digest_mismatches;
      continue;  // Wrong body; the entry stays and the backoff keeps going.
    }
    missing_.erase(it);
    ++stats_.vertices_fetched;
    if (deliver_) {
      deliver_(std::move(v), expected);
    }
  }
  in_response_ = false;
}

void VertexFetcher::OnSnapshotOffer(NodeId from, const Bytes& payload) {
  auto msg = SnapshotOfferMsg::Decode(payload);
  if (!msg.has_value() || snapshot_deliver_ == nullptr) {
    return;
  }
  if (snap_.has_value()) {
    // One transfer at a time — but the serving side rotates checkpoints, so
    // a newer offer from the same peer means our in-flight seq is (or will
    // shortly be) unservable. Restart against the fresh seq; anything else
    // waits until this transfer finishes or is abandoned.
    if (from != snap_->peer || msg->seq <= snap_->seq) {
      return;
    }
    snap_.reset();
  }
  const Round watermark = watermark_ ? watermark_() : 0;
  if (msg->last_committed <= watermark) {
    return;  // Stale offer: normal fetch already covers this gap.
  }
  if (msg->total_bytes > kMaxAcceptedSnapshotBytes) {
    CLANDAG_WARN("node %u: rejecting oversized snapshot offer from %u (%llu bytes)",
                 runtime_.id(), from, static_cast<unsigned long long>(msg->total_bytes));
    return;
  }
  const uint64_t chunks = (msg->total_bytes + msg->chunk_size - 1) / msg->chunk_size;
  if (chunks == 0 || chunks > kMaxSnapshotChunks) {
    return;
  }
  SnapshotTransfer t;
  t.peer = from;
  t.seq = msg->seq;
  t.total_bytes = msg->total_bytes;
  t.chunk_size = msg->chunk_size;
  t.chunk_count = static_cast<uint32_t>(chunks);
  t.total_checksum = msg->total_checksum;
  t.buf.reserve(static_cast<size_t>(msg->total_bytes));
  snap_ = std::move(t);
  ++snap_gen_;
  CLANDAG_INFO("node %u: pulling snapshot seq %llu (commit round %llu, %llu bytes, %u chunks) "
               "from %u",
               runtime_.id(), static_cast<unsigned long long>(msg->seq),
               static_cast<unsigned long long>(msg->last_committed),
               static_cast<unsigned long long>(msg->total_bytes), snap_->chunk_count, from);
  RequestSnapshotChunk();
}

void VertexFetcher::RequestSnapshotChunk() {
  SnapshotChunkRequestMsg req;
  req.seq = snap_->seq;
  req.chunk_index = snap_->next_chunk;
  runtime_.Send(snap_->peer, kSyncSnapshotChunkRequest, req.Encode());
  const uint64_t gen = snap_gen_;
  const uint32_t chunk = snap_->next_chunk;
  const TimeMicros backoff = kSnapshotChunkTimeout + NextBackoff(snap_->attempts);
  runtime_.Schedule(backoff, [this, gen, chunk] { OnSnapshotTimer(gen, chunk); });
}

void VertexFetcher::OnSnapshotTimer(uint64_t gen, uint32_t chunk) {
  if (!snap_.has_value() || gen != snap_gen_ || chunk != snap_->next_chunk) {
    return;  // Transfer finished, abandoned, or the chunk already arrived.
  }
  if (++snap_->attempts > kMaxSnapshotChunkAttempts) {
    CLANDAG_WARN("node %u: abandoning snapshot transfer seq %llu at chunk %u/%u", runtime_.id(),
                 static_cast<unsigned long long>(snap_->seq), chunk, snap_->chunk_count);
    snap_.reset();
    ++snap_gen_;
    return;  // Normal fetch keeps running; a later offer restarts the pull.
  }
  ++stats_.snapshot_chunk_retries;
  RequestSnapshotChunk();
}

void VertexFetcher::OnSnapshotChunk(NodeId from, const Bytes& payload) {
  auto msg = SnapshotChunkMsg::Decode(payload);
  if (!msg.has_value() || !snap_.has_value()) {
    return;
  }
  if (from != snap_->peer || msg->seq != snap_->seq || msg->chunk_index != snap_->next_chunk ||
      msg->chunk_count != snap_->chunk_count) {
    return;  // Duplicate, stale, or out-of-order chunk; the timer re-requests.
  }
  const uint64_t begin = static_cast<uint64_t>(msg->chunk_index) * snap_->chunk_size;
  const uint64_t expect =
      std::min<uint64_t>(snap_->chunk_size, snap_->total_bytes - begin);
  if (msg->data.size() != expect ||
      WalChecksum(msg->data.data(), msg->data.size()) != msg->checksum) {
    return;  // Torn or corrupt chunk; keep the transfer and let the retry run.
  }
  snap_->buf.insert(snap_->buf.end(), msg->data.begin(), msg->data.end());
  snap_->attempts = 0;
  ++snap_->next_chunk;
  if (snap_->next_chunk < snap_->chunk_count) {
    RequestSnapshotChunk();
    return;
  }
  // Whole payload assembled: verify end to end, decode, deliver.
  SnapshotTransfer done = std::move(*snap_);
  snap_.reset();
  ++snap_gen_;
  if (done.buf.size() != done.total_bytes ||
      WalChecksum(done.buf.data(), done.buf.size()) != done.total_checksum) {
    CLANDAG_WARN("node %u: snapshot transfer seq %llu failed whole-payload checksum",
                 runtime_.id(), static_cast<unsigned long long>(done.seq));
    return;
  }
  auto snap = DecodeSnapshotData(done.buf);
  if (!snap.has_value()) {
    CLANDAG_WARN("node %u: snapshot transfer seq %llu undecodable", runtime_.id(),
                 static_cast<unsigned long long>(done.seq));
    return;
  }
  snapshot_deliver_(done.peer, std::move(*snap));
}

std::vector<std::pair<Vertex, Digest>> VertexFetcher::TakeAdmissible() {
  // Retire missing entries satisfied through the normal broadcast path.
  for (auto it = missing_.begin(); it != missing_.end();) {
    it = Satisfied(it->first.first, it->first.second) ? missing_.erase(it) : std::next(it);
  }
  std::vector<std::pair<Vertex, Digest>> out;
  for (auto it = blocked_.begin(); it != blocked_.end();) {
    Blocked& b = it->second;
    if (dag_.Has(b.v.round, b.v.source)) {
      it = blocked_.erase(it);  // Duplicate admitted elsewhere.
      continue;
    }
    if (dag_.ParentsPresent(b.v)) {
      out.emplace_back(std::move(b.v), b.digest);
      it = blocked_.erase(it);
      continue;
    }
    ++it;
  }
  return out;
}

std::optional<Round> VertexFetcher::OldestPinnedRound() const {
  std::optional<Round> oldest;
  if (!blocked_.empty()) {
    oldest = blocked_.begin()->first.first;
  }
  if (!missing_.empty()) {
    const Round r = missing_.begin()->first.first;
    if (!oldest.has_value() || r < *oldest) {
      oldest = r;
    }
  }
  return oldest;
}

void VertexFetcher::PruneBelow(Round floor) {
  for (auto it = blocked_.begin(); it != blocked_.end();) {
    it = it->first.first < floor ? blocked_.erase(it) : std::next(it);
  }
  for (auto it = missing_.begin(); it != missing_.end();) {
    it = it->first.first < floor ? missing_.erase(it) : std::next(it);
  }
  SweepOrphanedMissing();
}

void VertexFetcher::Abandon(const Key& key) {
  missing_.erase(key);
  // Children waiting on this parent can never be admitted; drop them.
  for (auto it = blocked_.begin(); it != blocked_.end();) {
    const Vertex& v = it->second.v;
    bool references = false;
    if (v.round == key.first + 1) {
      for (const StrongEdge& e : v.strong_edges) {
        if (e.source == key.second) {
          references = true;
          break;
        }
      }
    }
    for (const WeakEdge& e : v.weak_edges) {
      if (e.round == key.first && e.source == key.second) {
        references = true;
        break;
      }
    }
    it = references ? blocked_.erase(it) : std::next(it);
  }
  SweepOrphanedMissing();
}

void VertexFetcher::SweepOrphanedMissing() {
  std::set<Key> referenced;
  for (const auto& [unused, b] : blocked_) {
    if (b.v.round > 0) {
      for (const StrongEdge& e : b.v.strong_edges) {
        referenced.insert({b.v.round - 1, e.source});
      }
    }
    for (const WeakEdge& e : b.v.weak_edges) {
      referenced.insert({e.round, e.source});
    }
  }
  for (auto it = missing_.begin(); it != missing_.end();) {
    it = referenced.count(it->first) == 0 ? missing_.erase(it) : std::next(it);
  }
}

}  // namespace clandag
