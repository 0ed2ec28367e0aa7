#include "sync/fetch_responder.h"

#include <algorithm>
#include <deque>
#include <set>
#include <utility>

#include "common/log.h"
#include "sync/wal.h"

namespace clandag {
namespace {

// How many rounds below a requested vertex the ancestor walk may descend.
constexpr Round kMaxAncestorDepth = 32;
// Size of every snapshot chunk but the last.
constexpr uint32_t kSnapshotChunkBytes = 64 * 1024;
static_assert(kSnapshotChunkBytes <= kMaxSnapshotChunkBytes);

}  // namespace

FetchResponder::FetchResponder(Runtime& runtime, const DagStore& dag, ResponderConfig config)
    : runtime_(runtime), dag_(dag), config_(config) {}

void FetchResponder::OnRequest(NodeId from, const Bytes& payload) {
  auto msg = FetchRequestMsg::Decode(payload);
  if (!msg.has_value()) {
    CLANDAG_DEBUG("node %u: malformed fetch request from %u", runtime_.id(), from);
    return;
  }
  ++stats_.requests_served;

  FetchResponseMsg resp;
  const uint32_t budget =
      std::min(config_.max_vertices_per_response, kMaxFetchVertices);
  std::set<std::pair<Round, NodeId>> visited;
  // BFS from every want through strong and weak edges; the wants themselves
  // are served unconditionally, ancestors only down to the watermark and
  // depth limit.
  std::deque<std::pair<std::pair<Round, NodeId>, Round>> frontier;  // (key, want round)
  for (const VertexRef& want : msg->wants) {
    if (visited.insert({want.round, want.source}).second) {
      frontier.push_back({{want.round, want.source}, want.round});
    }
  }
  bool below_horizon = false;  // Some want is pruned and history cannot serve it.
  while (!frontier.empty() && resp.vertices.size() < budget) {
    auto [key, want_round] = frontier.front();
    frontier.pop_front();
    bool from_history = false;
    std::optional<Vertex> v = dag_.Lookup(key.first, key.second, &from_history);
    if (!v.has_value()) {
      if (key.first < dag_.PrunedFloor()) {
        below_horizon = true;  // Committed history this responder no longer holds.
      }
      continue;  // Never received, or pruned with no history backend.
    }
    if (from_history) {
      ++stats_.wal_vertices_served;
    }
    const Round floor =
        want_round > kMaxAncestorDepth ? want_round - kMaxAncestorDepth : 0;
    auto expand = [&](Round round, NodeId source) {
      if (round < msg->low_watermark || round < floor) {
        return;
      }
      if (visited.insert({round, source}).second) {
        frontier.push_back({{round, source}, want_round});
      }
    };
    if (v->round > 0) {
      for (const StrongEdge& e : v->strong_edges) {
        expand(v->round - 1, e.source);
      }
    }
    for (const WeakEdge& e : v->weak_edges) {
      expand(e.round, e.source);
    }
    resp.vertices.push_back(std::move(*v));
  }

  if (below_horizon && snapshot_source_) {
    // The requester needs committed history this node no longer holds in any
    // servable form: offer the latest durable snapshot so it can catch up
    // wholesale instead of paging a bottomless gap.
    if (auto snap = snapshot_source_(); snap != nullptr) {
      OfferSnapshot(from, *snap, msg->low_watermark);
    }
  }

  if (resp.vertices.empty()) {
    return;  // Nothing to offer; the requester's rotation moves on.
  }
  stats_.vertices_served += resp.vertices.size();
  runtime_.Send(from, kSyncFetchResponse, resp.Encode());
}

void FetchResponder::OfferSnapshot(NodeId to, const SnapshotServeState& snap,
                                   Round requester_watermark) {
  if (snap.bytes.empty() || snap.last_committed <= requester_watermark) {
    return;  // Nothing durable, or the requester is already past it.
  }
  SnapshotOfferMsg offer;
  offer.seq = snap.seq;
  offer.last_committed = snap.last_committed;
  offer.order_count = snap.order_count;
  offer.total_bytes = snap.bytes.size();
  offer.chunk_size = kSnapshotChunkBytes;
  offer.total_checksum = snap.checksum;
  ++stats_.snapshot_offers_sent;
  runtime_.Send(to, kSyncSnapshotOffer, offer.Encode());
}

void FetchResponder::OnSnapshotChunkRequest(NodeId from, const Bytes& payload) {
  auto msg = SnapshotChunkRequestMsg::Decode(payload);
  if (!msg.has_value() || !snapshot_source_) {
    return;
  }
  auto snap = snapshot_by_seq_ ? snapshot_by_seq_(msg->seq) : snapshot_source_();
  if (snap == nullptr || snap->seq != msg->seq || snap->bytes.empty()) {
    // The named snapshot rotated out from under the transfer. Don't leave the
    // requester retrying a dead seq: re-offer the current snapshot so it can
    // restart against bytes this node can actually serve.
    if (auto current = snapshot_source_(); current != nullptr) {
      OfferSnapshot(from, *current, /*requester_watermark=*/0);
    }
    return;
  }
  const uint32_t chunk_size = kSnapshotChunkBytes;
  const uint64_t begin = static_cast<uint64_t>(msg->chunk_index) * chunk_size;
  if (begin >= snap->bytes.size()) {
    return;
  }
  const uint64_t len = std::min<uint64_t>(chunk_size, snap->bytes.size() - begin);
  SnapshotChunkMsg chunk;
  chunk.seq = snap->seq;
  chunk.chunk_index = msg->chunk_index;
  chunk.chunk_count =
      static_cast<uint32_t>((snap->bytes.size() + chunk_size - 1) / chunk_size);
  chunk.data.assign(snap->bytes.begin() + static_cast<size_t>(begin),
                    snap->bytes.begin() + static_cast<size_t>(begin + len));
  chunk.checksum = WalChecksum(chunk.data.data(), chunk.data.size());
  ++stats_.snapshot_chunks_served;
  runtime_.Send(from, kSyncSnapshotChunk, chunk.Encode());
}

}  // namespace clandag
