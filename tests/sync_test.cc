// State-sync & crash-recovery subsystem tests.
//
// Unit level: WAL framing and random access, recovery record codecs, the
// WalVertexStore replay/index, VertexFetcher request/verify/backoff logic,
// FetchResponder ancestry amplification and WAL-backed history serving.
//
// Integration level (deterministic simulation): a node whose inbound vertex
// traffic is dropped catches up through the fetch protocol to the same
// committed prefix as its peers; a node killed mid-run restarts from its
// WAL, replays the committed prefix, fetches the gap, and resumes with an
// identical ordered output. Both repeated with Byzantine block-withholding
// peers in the mix.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/byzantine.h"
#include "recording_cluster.h"
#include "sim/network.h"
#include "sync/recovery.h"
#include "sync/sync_wire.h"
#include "sync/fetch_responder.h"
#include "sync/vertex_fetcher.h"
#include "sync/wal.h"
#include "sync/wal_vertex_store.h"

namespace clandag {
namespace {

// ---- WAL ----

class WalTest : public ::testing::Test {
 protected:
  WalTest() {
    path_ = ::testing::TempDir() + "/clandag_wal_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".log";
    std::remove(path_.c_str());
  }
  ~WalTest() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(WalTest, AppendAndReplay) {
  {
    Wal wal(path_);
    ASSERT_TRUE(wal.Open());
    EXPECT_TRUE(wal.Append(ToBytes("record one")));
    EXPECT_TRUE(wal.Append(ToBytes("record two")));
    EXPECT_TRUE(wal.Sync());
  }
  std::vector<std::string> records;
  int64_t count = Wal::Replay(path_, [&](const Bytes& r) { records.push_back(ToString(r)); });
  EXPECT_EQ(count, 2);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], "record one");
  EXPECT_EQ(records[1], "record two");
}

TEST_F(WalTest, ReplayMissingFileFails) {
  EXPECT_EQ(Wal::Replay(path_ + ".nope", [](const Bytes&) {}), -1);
}

TEST_F(WalTest, TornTailTolerated) {
  {
    Wal wal(path_);
    ASSERT_TRUE(wal.Open());
    wal.Append(ToBytes("intact"));
    wal.Sync();
  }
  // Append garbage simulating a torn write.
  std::FILE* f = std::fopen(path_.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  uint8_t torn[5] = {0xff, 0x01, 0x02, 0x03, 0x04};
  std::fwrite(torn, 1, sizeof(torn), f);
  std::fclose(f);

  std::vector<std::string> records;
  int64_t count = Wal::Replay(path_, [&](const Bytes& r) { records.push_back(ToString(r)); });
  EXPECT_EQ(count, 1);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], "intact");
}

TEST_F(WalTest, CorruptChecksumStopsReplay) {
  {
    Wal wal(path_);
    ASSERT_TRUE(wal.Open());
    wal.Append(ToBytes("aaaa"));
    wal.Append(ToBytes("bbbb"));
    wal.Sync();
  }
  // Flip a payload byte of the first record (offset 8 = after its header).
  std::FILE* f = std::fopen(path_.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 8, SEEK_SET);
  std::fputc('X', f);
  std::fclose(f);
  int64_t count = Wal::Replay(path_, [](const Bytes&) {});
  EXPECT_EQ(count, 0);  // First record corrupt: replay stops immediately.
}

// A tail sheared mid-frame (power cut truncating the final record, not just
// trailing garbage) must be detected, reported, and then physically cut so
// records appended after recovery stay reachable.
TEST_F(WalTest, ShearedTailTruncatedThenAppendsStayReachable) {
  int64_t third_offset = 0;
  {
    Wal wal(path_);
    ASSERT_TRUE(wal.Open());
    wal.AppendIndexed(ToBytes("one"));
    wal.AppendIndexed(ToBytes("two"));
    third_offset = wal.AppendIndexed(ToBytes("three"));
    wal.Sync();
  }
  // Shear: keep the third record's header plus half its payload.
  ASSERT_TRUE(Wal::TruncateTo(path_, static_cast<uint64_t>(third_offset) + 8 + 2));

  WalReplayStatus status = Wal::ReplayFramesChecked(path_, [](uint64_t, const Bytes&) {});
  EXPECT_EQ(status.records, 2);
  EXPECT_TRUE(status.torn_tail);
  EXPECT_EQ(status.valid_bytes, static_cast<uint64_t>(third_offset));

  ASSERT_TRUE(Wal::TruncateTo(path_, status.valid_bytes));
  {
    Wal wal(path_);
    ASSERT_TRUE(wal.Open());
    wal.Append(ToBytes("four"));
    wal.Sync();
  }
  std::vector<std::string> records;
  EXPECT_EQ(Wal::Replay(path_, [&](const Bytes& r) { records.push_back(ToString(r)); }), 3);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[2], "four");
}

TEST_F(WalTest, EmptyRecordRoundTrips) {
  {
    Wal wal(path_);
    ASSERT_TRUE(wal.Open());
    wal.Append(Bytes{});
    wal.Sync();
  }
  int64_t count = Wal::Replay(path_, [](const Bytes& r) { EXPECT_TRUE(r.empty()); });
  EXPECT_EQ(count, 1);
}

TEST_F(WalTest, AppendIndexedReportsFrameOffsets) {
  Wal wal(path_);
  ASSERT_TRUE(wal.Open());
  int64_t off1 = wal.AppendIndexed(ToBytes("first"));
  int64_t off2 = wal.AppendIndexed(ToBytes("second record"));
  int64_t off3 = wal.AppendIndexed(ToBytes("third"));
  ASSERT_TRUE(wal.Flush());
  EXPECT_EQ(off1, 0);
  // Frame = 8-byte header + payload.
  EXPECT_EQ(off2, off1 + 8 + 5);
  EXPECT_EQ(off3, off2 + 8 + 13);
  EXPECT_EQ(wal.SizeBytes(), static_cast<uint64_t>(off3) + 8 + 5);

  auto second = Wal::ReadRecordAt(path_, static_cast<uint64_t>(off2));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(ToString(*second), "second record");
}

TEST_F(WalTest, ReadRecordAtBogusOffsetFails) {
  {
    Wal wal(path_);
    ASSERT_TRUE(wal.Open());
    wal.Append(ToBytes("only"));
    wal.Sync();
  }
  EXPECT_FALSE(Wal::ReadRecordAt(path_, 3).has_value());     // Mid-frame.
  EXPECT_FALSE(Wal::ReadRecordAt(path_, 1000).has_value());  // Past EOF.
}

TEST_F(WalTest, ReplayFramesMatchesAppendIndexed) {
  std::vector<int64_t> append_offsets;
  {
    Wal wal(path_);
    ASSERT_TRUE(wal.Open());
    append_offsets.push_back(wal.AppendIndexed(ToBytes("a")));
    append_offsets.push_back(wal.AppendIndexed(ToBytes("bb")));
    append_offsets.push_back(wal.AppendIndexed(ToBytes("ccc")));
    wal.Sync();
  }
  std::vector<uint64_t> replay_offsets;
  int64_t count = Wal::ReplayFrames(
      path_, [&](uint64_t offset, const Bytes&) { replay_offsets.push_back(offset); });
  EXPECT_EQ(count, 3);
  ASSERT_EQ(replay_offsets.size(), append_offsets.size());
  for (size_t i = 0; i < append_offsets.size(); ++i) {
    EXPECT_EQ(static_cast<int64_t>(replay_offsets[i]), append_offsets[i]);
  }
}

TEST_F(WalTest, ReopenAppendsAfterExistingRecords) {
  {
    Wal wal(path_);
    ASSERT_TRUE(wal.Open());
    wal.Append(ToBytes("one"));
    wal.Sync();
  }
  {
    Wal wal(path_);
    ASSERT_TRUE(wal.Open());
    wal.Append(ToBytes("two"));
    wal.Sync();
  }
  std::vector<std::string> records;
  EXPECT_EQ(Wal::Replay(path_, [&](const Bytes& r) { records.push_back(ToString(r)); }), 2);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1], "two");
}

// ---- Recovery record codecs ----

Vertex MakeVertex(Round round, NodeId source) {
  Vertex v;
  v.round = round;
  v.source = source;
  return v;
}

TEST(RecoveryRecord, VertexRecordRoundTrips) {
  Vertex v = MakeVertex(9, 2);
  v.block_digest = Digest::Of(ToBytes("blk"));
  v.block_tx_count = 40;
  v.strong_edges = {StrongEdge{0, Digest::Of(ToBytes("p"))}};
  auto rec = DecodeWalRecord(EncodeVertexRecord(v));
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->type, WalRecordType::kOrderedVertex);
  EXPECT_EQ(rec->vertex, v);
}

TEST(RecoveryRecord, AnchorAndProposalRecordsRoundTrip) {
  auto anchor = DecodeWalRecord(EncodeAnchorRecord(17));
  ASSERT_TRUE(anchor.has_value());
  EXPECT_EQ(anchor->type, WalRecordType::kAnchor);
  EXPECT_EQ(anchor->round, 17u);

  auto proposal = DecodeWalRecord(EncodeProposalRecord(23));
  ASSERT_TRUE(proposal.has_value());
  EXPECT_EQ(proposal->type, WalRecordType::kProposal);
  EXPECT_EQ(proposal->round, 23u);
}

TEST(RecoveryRecord, MalformedRecordsRejected) {
  EXPECT_FALSE(DecodeWalRecord(Bytes{}).has_value());
  EXPECT_FALSE(DecodeWalRecord(Bytes{0x7f}).has_value());  // Unknown type tag.
  Bytes truncated = EncodeAnchorRecord(5);
  truncated.pop_back();
  EXPECT_FALSE(DecodeWalRecord(truncated).has_value());
  Bytes trailing = EncodeProposalRecord(5);
  trailing.push_back(0xcd);
  EXPECT_FALSE(DecodeWalRecord(trailing).has_value());
}

TEST(RecoveryRecord, SnapshotMarkRecordRoundTrips) {
  auto mark = DecodeWalRecord(EncodeSnapshotMarkRecord(7, 1234, 88));
  ASSERT_TRUE(mark.has_value());
  EXPECT_EQ(mark->type, WalRecordType::kSnapshotMark);
  EXPECT_EQ(mark->seq, 7u);
  EXPECT_EQ(mark->order_count, 1234u);
  EXPECT_EQ(mark->round, 88u);

  Bytes truncated = EncodeSnapshotMarkRecord(7, 1234, 88);
  truncated.pop_back();
  EXPECT_FALSE(DecodeWalRecord(truncated).has_value());
}

// ---- Snapshot wire codecs ----

TEST(SnapshotWire, OfferRoundTripsAndRejectsMalformed) {
  SnapshotOfferMsg offer;
  offer.seq = 5;
  offer.last_committed = 64;
  offer.order_count = 300;
  offer.total_bytes = 70000;
  offer.chunk_size = 65536;
  offer.total_checksum = 0x1234abcd;
  auto decoded = SnapshotOfferMsg::Decode(offer.Encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->seq, offer.seq);
  EXPECT_EQ(decoded->last_committed, offer.last_committed);
  EXPECT_EQ(decoded->order_count, offer.order_count);
  EXPECT_EQ(decoded->total_bytes, offer.total_bytes);
  EXPECT_EQ(decoded->chunk_size, offer.chunk_size);
  EXPECT_EQ(decoded->total_checksum, offer.total_checksum);

  Bytes truncated = offer.Encode();
  truncated.pop_back();
  EXPECT_FALSE(SnapshotOfferMsg::Decode(truncated).has_value());
  Bytes trailing = offer.Encode();
  trailing.push_back(0x00);
  EXPECT_FALSE(SnapshotOfferMsg::Decode(trailing).has_value());
}

TEST(SnapshotWire, ChunkRequestRoundTripsAndRejectsMalformed) {
  SnapshotChunkRequestMsg req;
  req.seq = 5;
  req.chunk_index = 11;
  auto decoded = SnapshotChunkRequestMsg::Decode(req.Encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->seq, 5u);
  EXPECT_EQ(decoded->chunk_index, 11u);

  Bytes truncated = req.Encode();
  truncated.pop_back();
  EXPECT_FALSE(SnapshotChunkRequestMsg::Decode(truncated).has_value());
  EXPECT_FALSE(SnapshotChunkRequestMsg::Decode(Bytes{}).has_value());
}

TEST(SnapshotWire, ChunkRoundTripsAndRejectsMalformed) {
  SnapshotChunkMsg chunk;
  chunk.seq = 5;
  chunk.chunk_index = 2;
  chunk.chunk_count = 4;
  chunk.data = ToBytes("the chunk payload");
  chunk.checksum = WalChecksum(chunk.data.data(), chunk.data.size());
  auto decoded = SnapshotChunkMsg::Decode(chunk.Encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->seq, 5u);
  EXPECT_EQ(decoded->chunk_index, 2u);
  EXPECT_EQ(decoded->chunk_count, 4u);
  EXPECT_EQ(decoded->checksum, chunk.checksum);
  EXPECT_EQ(decoded->data, chunk.data);

  Bytes truncated = chunk.Encode();
  truncated.pop_back();
  EXPECT_FALSE(SnapshotChunkMsg::Decode(truncated).has_value());
  Bytes trailing = chunk.Encode();
  trailing.push_back(0xee);
  EXPECT_FALSE(SnapshotChunkMsg::Decode(trailing).has_value());
}

// ---- WalVertexStore ----

class WalVertexStoreTest : public ::testing::Test {
 protected:
  WalVertexStoreTest() {
    path_ = ::testing::TempDir() + "/clandag_wvs_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".log";
    std::remove(path_.c_str());
  }
  ~WalVertexStoreTest() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(WalVertexStoreTest, LoadFreshLogIsEmpty) {
  WalVertexStore store(path_);
  ASSERT_TRUE(store.Load());
  EXPECT_FALSE(store.recovery().HasData());
  EXPECT_EQ(store.IndexedCount(), 0u);
}

TEST_F(WalVertexStoreTest, ReplaySplitsPrefixAndTrailing) {
  {
    WalVertexStore store(path_);
    ASSERT_TRUE(store.Load());
    store.AppendProposal(0);
    store.AppendOrdered(MakeVertex(0, 0));
    store.AppendOrdered(MakeVertex(0, 1));
    store.AppendOrdered(MakeVertex(1, 2));
    store.AppendAnchor(1);  // Commit barrier: the three above are the prefix.
    store.AppendOrdered(MakeVertex(1, 3));
    store.AppendOrdered(MakeVertex(2, 0));  // Trailing: no barrier after them.
    store.AppendProposal(3);
  }
  WalVertexStore store(path_);
  ASSERT_TRUE(store.Load());
  const RecoveryState& state = store.recovery();
  EXPECT_TRUE(state.HasData());
  EXPECT_EQ(state.records, 8u);
  ASSERT_EQ(state.ordered.size(), 3u);
  EXPECT_EQ(state.ordered[0], MakeVertex(0, 0));
  EXPECT_EQ(state.ordered[2], MakeVertex(1, 2));
  ASSERT_EQ(state.trailing.size(), 2u);
  EXPECT_EQ(state.trailing[0], MakeVertex(1, 3));
  EXPECT_EQ(state.last_committed, 1);
  EXPECT_EQ(state.propose_floor, 4u);  // Highest proposal marker + 1.
  EXPECT_EQ(store.IndexedCount(), 5u);
}

TEST_F(WalVertexStoreTest, LookupReadsVerticesBack) {
  Vertex v = MakeVertex(4, 1);
  v.block_digest = Digest::Of(ToBytes("payload"));
  v.strong_edges = {StrongEdge{2, Digest::Of(ToBytes("e"))}};
  {
    WalVertexStore store(path_);
    ASSERT_TRUE(store.Load());
    store.AppendOrdered(v);
    store.AppendAnchor(4);
  }
  WalVertexStore store(path_);
  ASSERT_TRUE(store.Load());
  auto got = store.Lookup(4, 1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, v);
  EXPECT_FALSE(store.Lookup(4, 2).has_value());
  EXPECT_FALSE(store.Lookup(5, 1).has_value());
}

TEST_F(WalVertexStoreTest, DuplicateOrderedAppendsDeduplicated) {
  {
    WalVertexStore store(path_);
    ASSERT_TRUE(store.Load());
    store.AppendOrdered(MakeVertex(2, 2));
    store.AppendOrdered(MakeVertex(2, 2));  // Re-ordered after crash-during-catchup.
    store.AppendAnchor(2);
  }
  WalVertexStore store(path_);
  ASSERT_TRUE(store.Load());
  EXPECT_EQ(store.recovery().records, 2u);  // Second append was skipped.
  EXPECT_EQ(store.recovery().ordered.size(), 1u);
  EXPECT_EQ(store.IndexedCount(), 1u);
}

TEST_F(WalVertexStoreTest, NoAnchorMeansEverythingTrailing) {
  {
    WalVertexStore store(path_);
    ASSERT_TRUE(store.Load());
    store.AppendOrdered(MakeVertex(0, 0));
    store.AppendOrdered(MakeVertex(0, 1));
  }
  WalVertexStore store(path_);
  ASSERT_TRUE(store.Load());
  EXPECT_TRUE(store.recovery().ordered.empty());
  EXPECT_EQ(store.recovery().trailing.size(), 2u);
  EXPECT_EQ(store.recovery().last_committed, -1);
}

TEST_F(WalVertexStoreTest, CorruptRecordPayloadSkippedNotFatal) {
  {
    Wal wal(path_);
    ASSERT_TRUE(wal.Open());
    wal.Append(ToBytes("not a wal record"));  // Valid frame, bogus schema.
    wal.Append(EncodeAnchorRecord(3));
    wal.Sync();
  }
  WalVertexStore store(path_);
  ASSERT_TRUE(store.Load());
  // The undecodable record is skipped; the anchor behind it still applies.
  EXPECT_EQ(store.recovery().last_committed, 3);
}

// ---- Fetcher / responder unit tests ----

// Single-node deterministic runtime: timers fire on demand, sends are
// captured for inspection.
class FakeRuntime : public Runtime {
 public:
  FakeRuntime(NodeId id, uint32_t n) : id_(id), n_(n) {}

  using Runtime::Send;
  NodeId id() const override { return id_; }
  uint32_t num_nodes() const override { return n_; }
  TimeMicros Now() const override { return now_; }
  void Schedule(TimeMicros delay, std::function<void()> fn) override {
    timers_.push_back(Timer{now_ + delay, seq_++, std::move(fn)});
  }
  void Send(NodeId to, MsgType type, std::shared_ptr<const Bytes> payload,
            size_t) override {
    sent.push_back(SentMsg{to, type, *payload});
  }

  // Advances the clock to `t`, firing due timers in (time, sequence) order.
  void AdvanceTo(TimeMicros t) {
    for (;;) {
      size_t best = timers_.size();
      for (size_t i = 0; i < timers_.size(); ++i) {
        if (timers_[i].at > t) {
          continue;
        }
        if (best == timers_.size() || timers_[i].at < timers_[best].at ||
            (timers_[i].at == timers_[best].at && timers_[i].seq < timers_[best].seq)) {
          best = i;
        }
      }
      if (best == timers_.size()) {
        break;
      }
      Timer timer = std::move(timers_[best]);
      timers_.erase(timers_.begin() + static_cast<long>(best));
      now_ = std::max(now_, timer.at);
      timer.fn();
    }
    now_ = std::max(now_, t);
  }

  struct SentMsg {
    NodeId to;
    MsgType type;
    Bytes payload;
  };
  std::vector<SentMsg> sent;

 private:
  struct Timer {
    TimeMicros at;
    uint64_t seq;
    std::function<void()> fn;
  };
  NodeId id_;
  uint32_t n_;
  TimeMicros now_ = 0;
  uint64_t seq_ = 0;
  std::vector<Timer> timers_;
};

class VertexFetcherTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kNodes = 4;

  VertexFetcherTest() : runtime_(3, kNodes), dag_(kNodes) {}

  // A child one round above `parent` referencing it through a strong edge.
  static Vertex ChildOf(const Vertex& parent, NodeId child_source) {
    Vertex child = MakeVertex(parent.round + 1, child_source);
    child.strong_edges = {StrongEdge{parent.source, parent.ComputeDigest()}};
    return child;
  }

  FakeRuntime runtime_;
  DagStore dag_;
};

TEST_F(VertexFetcherTest, RequestsMissingParentAfterGracePeriod) {
  FetcherConfig config;
  config.initial_delay = Millis(100);
  VertexFetcher fetcher(runtime_, dag_, config);
  fetcher.SetLowWatermark([] { return Round{7}; });

  Vertex parent = MakeVertex(1, 0);
  fetcher.AddBlocked(ChildOf(parent, 1), Digest::Of(ToBytes("child")));
  EXPECT_EQ(fetcher.BlockedCount(), 1u);
  EXPECT_EQ(fetcher.MissingCount(), 1u);

  runtime_.AdvanceTo(Millis(99));
  EXPECT_TRUE(runtime_.sent.empty());  // Grace period: broadcast may still win.

  runtime_.AdvanceTo(Millis(101));
  ASSERT_EQ(runtime_.sent.size(), 1u);
  EXPECT_EQ(runtime_.sent[0].type, kSyncFetchRequest);
  EXPECT_NE(runtime_.sent[0].to, runtime_.id());  // Never asks itself.
  auto req = FetchRequestMsg::Decode(runtime_.sent[0].payload);
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->low_watermark, 7u);
  ASSERT_EQ(req->wants.size(), 1u);
  EXPECT_EQ(req->wants[0], (VertexRef{1, 0}));
  EXPECT_EQ(fetcher.stats().requests_sent, 1u);
}

TEST_F(VertexFetcherTest, RetriesRotateOverPeers) {
  FetcherConfig config;
  config.initial_delay = Millis(10);
  config.retry_base = Millis(10);
  config.retry_cap = Millis(10);
  VertexFetcher fetcher(runtime_, dag_, config);

  fetcher.AddBlocked(ChildOf(MakeVertex(1, 0), 1), Digest::Of(ToBytes("c")));
  runtime_.AdvanceTo(Millis(100));
  ASSERT_GE(runtime_.sent.size(), 3u);
  std::set<NodeId> targets;
  for (const auto& msg : runtime_.sent) {
    EXPECT_NE(msg.to, runtime_.id());
    targets.insert(msg.to);
  }
  EXPECT_GE(targets.size(), 2u);  // Rotation hits distinct peers.
  EXPECT_GE(fetcher.stats().retries, 2u);
}

TEST_F(VertexFetcherTest, BackoffGrowsExponentiallyAndCaps) {
  FetcherConfig config;
  config.retry_base = Millis(100);
  config.retry_cap = Millis(1600);
  config.retry_jitter = 0.0;  // Exact schedule.
  VertexFetcher fetcher(runtime_, dag_, config);
  EXPECT_EQ(fetcher.NextBackoff(0), Millis(100));
  EXPECT_EQ(fetcher.NextBackoff(1), Millis(200));
  EXPECT_EQ(fetcher.NextBackoff(2), Millis(400));
  EXPECT_EQ(fetcher.NextBackoff(3), Millis(800));
  EXPECT_EQ(fetcher.NextBackoff(4), Millis(1600));
  EXPECT_EQ(fetcher.NextBackoff(5), Millis(1600));   // Capped.
  EXPECT_EQ(fetcher.NextBackoff(60), Millis(1600));  // Shift clamped: no overflow.
}

TEST_F(VertexFetcherTest, BackoffJitterStaysWithinBand) {
  FetcherConfig config;
  config.retry_base = Millis(100);
  config.retry_jitter = 0.25;
  config.seed = 99;
  VertexFetcher fetcher(runtime_, dag_, config);
  TimeMicros first = 0;
  bool varied = false;
  for (int i = 0; i < 64; ++i) {
    const TimeMicros b = fetcher.NextBackoff(1);  // Nominal 200ms.
    EXPECT_GE(b, Millis(150));
    EXPECT_LE(b, Millis(250));
    if (i == 0) {
      first = b;
    } else if (b != first) {
      varied = true;
    }
  }
  EXPECT_TRUE(varied);  // The band is actually explored, not a constant.
}

TEST_F(VertexFetcherTest, BackoffScheduleIsSeedDeterministic) {
  FetcherConfig config;
  config.retry_jitter = 0.3;
  config.seed = 1234;
  VertexFetcher a(runtime_, dag_, config);
  VertexFetcher b(runtime_, dag_, config);
  std::vector<TimeMicros> seq_a;
  std::vector<TimeMicros> seq_b;
  for (uint32_t i = 0; i < 20; ++i) {
    seq_a.push_back(a.NextBackoff(i % 6));
    seq_b.push_back(b.NextBackoff(i % 6));
  }
  // Same (seed, node id) -> the identical schedule, replayable in tests.
  EXPECT_EQ(seq_a, seq_b);

  config.seed = 4321;
  VertexFetcher c(runtime_, dag_, config);
  std::vector<TimeMicros> seq_c;
  for (uint32_t i = 0; i < 20; ++i) {
    seq_c.push_back(c.NextBackoff(i % 6));
  }
  EXPECT_NE(seq_a, seq_c);  // Different seeds decorrelate the jitter.
}

TEST_F(VertexFetcherTest, VerifiedResponseIsDeliveredAndUnblocksChild) {
  FetcherConfig config;
  config.initial_delay = Millis(10);
  VertexFetcher fetcher(runtime_, dag_, config);

  std::vector<std::pair<Vertex, Digest>> delivered;
  fetcher.SetDeliver([&](Vertex v, const Digest& d) {
    delivered.push_back({v, d});
    EXPECT_TRUE(dag_.Insert(std::move(v)));  // What consensus admission does.
  });

  Vertex parent = MakeVertex(1, 0);
  Vertex child = ChildOf(parent, 1);
  const Digest child_digest = child.ComputeDigest();
  fetcher.AddBlocked(child, child_digest);

  FetchResponseMsg resp;
  resp.vertices.push_back(parent);
  fetcher.OnResponse(2, resp.Encode());

  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].first, parent);
  EXPECT_EQ(delivered[0].second, parent.ComputeDigest());
  EXPECT_EQ(fetcher.stats().vertices_fetched, 1u);
  EXPECT_EQ(fetcher.MissingCount(), 0u);

  auto admissible = fetcher.TakeAdmissible();
  ASSERT_EQ(admissible.size(), 1u);
  EXPECT_EQ(admissible[0].first, child);
  EXPECT_EQ(admissible[0].second, child_digest);
  EXPECT_EQ(fetcher.BlockedCount(), 0u);
}

TEST_F(VertexFetcherTest, WrongBodyFailsDigestVerification) {
  VertexFetcher fetcher(runtime_, dag_, FetcherConfig{});
  bool delivered = false;
  fetcher.SetDeliver([&](Vertex, const Digest&) { delivered = true; });

  Vertex parent = MakeVertex(1, 0);
  fetcher.AddBlocked(ChildOf(parent, 1), Digest::Of(ToBytes("c")));

  Vertex forged = parent;
  forged.block_tx_count = 999;  // Any bit flip: the edge digest pins the body.
  FetchResponseMsg resp;
  resp.vertices.push_back(forged);
  fetcher.OnResponse(2, resp.Encode());

  EXPECT_FALSE(delivered);
  EXPECT_EQ(fetcher.stats().digest_mismatches, 1u);
  EXPECT_EQ(fetcher.MissingCount(), 1u);  // Entry stays; backoff keeps going.
}

TEST_F(VertexFetcherTest, UnsolicitedResponseVerticesIgnored) {
  VertexFetcher fetcher(runtime_, dag_, FetcherConfig{});
  bool delivered = false;
  fetcher.SetDeliver([&](Vertex, const Digest&) { delivered = true; });
  FetchResponseMsg resp;
  resp.vertices.push_back(MakeVertex(5, 2));
  fetcher.OnResponse(1, resp.Encode());
  EXPECT_FALSE(delivered);
  EXPECT_EQ(fetcher.stats().responses_received, 1u);
  EXPECT_EQ(fetcher.stats().vertices_fetched, 0u);
}

TEST_F(VertexFetcherTest, FetchedParentRegistersItsOwnMissingParents) {
  FetcherConfig config;
  config.initial_delay = Millis(10);
  VertexFetcher fetcher(runtime_, dag_, config);
  // Chain: grandparent (1,0) <- parent (2,0) <- child (3,1). Nothing stored.
  Vertex grandparent = MakeVertex(1, 0);
  Vertex parent = ChildOf(grandparent, 0);
  Vertex child = ChildOf(parent, 1);
  fetcher.SetDeliver([&](Vertex v, const Digest& d) { fetcher.AddBlocked(std::move(v), d); });

  fetcher.AddBlocked(child, child.ComputeDigest());
  EXPECT_EQ(fetcher.MissingCount(), 1u);  // (2,0).

  FetchResponseMsg resp;
  resp.vertices.push_back(parent);
  fetcher.OnResponse(2, resp.Encode());
  // The fetched parent is itself blocked and the walk now wants (1,0).
  EXPECT_EQ(fetcher.BlockedCount(), 2u);
  EXPECT_EQ(fetcher.MissingCount(), 1u);
  EXPECT_EQ(fetcher.OldestPinnedRound().value_or(999), 1u);
}

TEST_F(VertexFetcherTest, AbandonsAfterMaxAttemptsAndDropsChildren) {
  FetcherConfig config;
  config.initial_delay = Millis(10);
  config.retry_base = Millis(10);
  config.retry_cap = Millis(10);
  config.max_attempts = 2;
  VertexFetcher fetcher(runtime_, dag_, config);

  fetcher.AddBlocked(ChildOf(MakeVertex(1, 0), 1), Digest::Of(ToBytes("c")));
  runtime_.AdvanceTo(Seconds(1));

  EXPECT_EQ(fetcher.stats().requests_sent, 2u);
  EXPECT_EQ(fetcher.stats().fetches_abandoned, 1u);
  EXPECT_EQ(fetcher.MissingCount(), 0u);
  EXPECT_EQ(fetcher.BlockedCount(), 0u);  // Unadmittable child dropped too.
}

TEST_F(VertexFetcherTest, ArrivalThroughBroadcastCancelsFetch) {
  FetcherConfig config;
  config.initial_delay = Millis(100);
  VertexFetcher fetcher(runtime_, dag_, config);

  Vertex parent = MakeVertex(1, 0);
  fetcher.AddBlocked(ChildOf(parent, 1), Digest::Of(ToBytes("c")));
  ASSERT_TRUE(dag_.Insert(parent));  // Normal broadcast wins during the grace period.

  runtime_.AdvanceTo(Seconds(1));
  EXPECT_TRUE(runtime_.sent.empty());
  EXPECT_EQ(fetcher.MissingCount(), 0u);
  EXPECT_EQ(fetcher.TakeAdmissible().size(), 1u);
}

TEST_F(VertexFetcherTest, RequestCarriesAtMost64Wants) {
  FetcherConfig config;
  config.initial_delay = Millis(10);
  VertexFetcher fetcher(runtime_, dag_, config);
  // 70 blocked children, each missing a different parent.
  for (Round r = 1; r <= 70; ++r) {
    fetcher.AddBlocked(ChildOf(MakeVertex(r, 0), 1), Digest::Of(ToBytes("c")));
  }
  ASSERT_EQ(fetcher.MissingCount(), 70u);

  runtime_.AdvanceTo(Millis(11));
  ASSERT_EQ(runtime_.sent.size(), 70u);  // One timed request per missing parent.
  size_t widest = 0;
  for (const auto& sent : runtime_.sent) {
    ASSERT_EQ(sent.type, kSyncFetchRequest);
    auto req = FetchRequestMsg::Decode(sent.payload);
    ASSERT_TRUE(req.has_value());
    widest = std::max(widest, req->wants.size());
  }
  EXPECT_EQ(widest, 64u);  // Piggybacking fills a request up to the cap, never past it.
}

TEST_F(VertexFetcherTest, RefusesSnapshotOfferAbove64MiB) {
  auto offer_of = [](uint64_t total_bytes) {
    SnapshotOfferMsg offer;
    offer.seq = 1;
    offer.last_committed = 50;
    offer.total_bytes = total_bytes;
    offer.chunk_size = 1u << 20;
    return offer.Encode();
  };
  VertexFetcher refusing(runtime_, dag_, FetcherConfig{});
  refusing.SetSnapshotDeliver([](NodeId, SnapshotData) {});
  refusing.OnSnapshotOffer(2, offer_of((64ull << 20) + 1));
  EXPECT_FALSE(refusing.SnapshotTransferActive());
  EXPECT_TRUE(runtime_.sent.empty());  // No chunk request.

  VertexFetcher accepting(runtime_, dag_, FetcherConfig{});
  accepting.SetSnapshotDeliver([](NodeId, SnapshotData) {});
  accepting.OnSnapshotOffer(2, offer_of(64ull << 20));
  EXPECT_TRUE(accepting.SnapshotTransferActive());
  ASSERT_EQ(runtime_.sent.size(), 1u);
  EXPECT_EQ(runtime_.sent[0].type, kSyncSnapshotChunkRequest);
}

TEST_F(VertexFetcherTest, PinsGcFloorAndPrunes) {
  VertexFetcher fetcher(runtime_, dag_, FetcherConfig{});
  EXPECT_FALSE(fetcher.OldestPinnedRound().has_value());

  fetcher.AddBlocked(ChildOf(MakeVertex(4, 0), 1), Digest::Of(ToBytes("c")));
  ASSERT_TRUE(fetcher.OldestPinnedRound().has_value());
  EXPECT_EQ(*fetcher.OldestPinnedRound(), 4u);  // The missing parent's round.

  fetcher.PruneBelow(10);
  EXPECT_EQ(fetcher.BlockedCount(), 0u);
  EXPECT_EQ(fetcher.MissingCount(), 0u);
  EXPECT_FALSE(fetcher.OldestPinnedRound().has_value());
}

// Fills rounds [0, upto] of `dag` where every vertex references all parents.
void FillDag(DagStore& dag, uint32_t nodes, Round upto) {
  for (Round r = 0; r <= upto; ++r) {
    for (NodeId src = 0; src < nodes; ++src) {
      Vertex v = MakeVertex(r, src);
      if (r > 0) {
        for (NodeId p = 0; p < nodes; ++p) {
          v.strong_edges.push_back(StrongEdge{p, *dag.DigestOf(r - 1, p)});
        }
      }
      ASSERT_TRUE(dag.Insert(std::move(v)));
    }
  }
}

class FetchResponderTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kNodes = 4;

  FetchResponderTest() : runtime_(0, kNodes), dag_(kNodes) {}

  FakeRuntime runtime_;
  DagStore dag_;
};

TEST_F(FetchResponderTest, ServesWantWithAmplifiedAncestry) {
  FillDag(dag_, kNodes, 2);
  FetchResponder responder(runtime_, dag_, ResponderConfig{});

  FetchRequestMsg req;
  req.low_watermark = 0;
  req.wants = {VertexRef{2, 0}};
  responder.OnRequest(3, req.Encode());

  ASSERT_EQ(runtime_.sent.size(), 1u);
  EXPECT_EQ(runtime_.sent[0].to, 3u);
  EXPECT_EQ(runtime_.sent[0].type, kSyncFetchResponse);
  auto resp = FetchResponseMsg::Decode(runtime_.sent[0].payload);
  ASSERT_TRUE(resp.has_value());
  // The want plus its full ancestry: 1 + 4 (round 1) + 4 (round 0).
  EXPECT_EQ(resp->vertices.size(), 9u);
  EXPECT_EQ(responder.stats().requests_served, 1u);
  EXPECT_EQ(responder.stats().vertices_served, 9u);
  EXPECT_EQ(responder.stats().wal_vertices_served, 0u);
}

TEST_F(FetchResponderTest, WatermarkBoundsTheAncestorWalk) {
  FillDag(dag_, kNodes, 2);
  FetchResponder responder(runtime_, dag_, ResponderConfig{});

  FetchRequestMsg req;
  req.low_watermark = 2;  // Requester already holds rounds < 2.
  req.wants = {VertexRef{2, 0}};
  responder.OnRequest(3, req.Encode());

  ASSERT_EQ(runtime_.sent.size(), 1u);
  auto resp = FetchResponseMsg::Decode(runtime_.sent[0].payload);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->vertices.size(), 1u);
}

TEST_F(FetchResponderTest, ResponseBudgetCapsAmplification) {
  FillDag(dag_, kNodes, 3);
  ResponderConfig config;
  config.max_vertices_per_response = 5;
  FetchResponder responder(runtime_, dag_, config);

  FetchRequestMsg req;
  req.low_watermark = 0;
  req.wants = {VertexRef{3, 0}};
  responder.OnRequest(1, req.Encode());

  ASSERT_EQ(runtime_.sent.size(), 1u);
  auto resp = FetchResponseMsg::Decode(runtime_.sent[0].payload);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->vertices.size(), 5u);
}

TEST_F(FetchResponderTest, ServesPrunedHistoryThroughLookupHook) {
  FillDag(dag_, kNodes, 2);
  // Snapshot everything, order it, prune rounds 0-1 away.
  std::map<std::pair<Round, NodeId>, Vertex> history;
  for (Round r = 0; r <= 2; ++r) {
    for (NodeId src = 0; src < kNodes; ++src) {
      history[{r, src}] = *dag_.Get(r, src);
    }
  }
  for (NodeId src = 0; src < kNodes; ++src) {
    dag_.OrderHistory(2, src);
  }
  dag_.PruneBelow(2);
  ASSERT_EQ(dag_.StatusOf(1, 0), VertexStatus::kPruned);
  dag_.SetPrunedLookup([&](Round r, NodeId src) -> std::optional<Vertex> {
    auto it = history.find({r, src});
    if (it == history.end()) {
      return std::nullopt;
    }
    return it->second;
  });

  FetchResponder responder(runtime_, dag_, ResponderConfig{});
  FetchRequestMsg req;
  req.low_watermark = 0;
  req.wants = {VertexRef{1, 0}};
  responder.OnRequest(2, req.Encode());

  ASSERT_EQ(runtime_.sent.size(), 1u);
  auto resp = FetchResponseMsg::Decode(runtime_.sent[0].payload);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->vertices.size(), 5u);  // (1,0) + round 0, all from history.
  EXPECT_EQ(responder.stats().wal_vertices_served, 5u);
}

TEST_F(FetchResponderTest, UnknownWantProducesNoResponse) {
  FetchResponder responder(runtime_, dag_, ResponderConfig{});
  FetchRequestMsg req;
  req.low_watermark = 0;
  req.wants = {VertexRef{9, 3}};
  responder.OnRequest(1, req.Encode());
  EXPECT_TRUE(runtime_.sent.empty());
  EXPECT_EQ(responder.stats().requests_served, 1u);
}

TEST_F(FetchResponderTest, MalformedRequestIgnored) {
  FetchResponder responder(runtime_, dag_, ResponderConfig{});
  responder.OnRequest(1, ToBytes("garbage"));
  EXPECT_TRUE(runtime_.sent.empty());
  EXPECT_EQ(responder.stats().requests_served, 0u);
}

// ---- Integration: catch-up and crash recovery over the simulator ----

using SyncCluster = RecordingCluster;

// Drops every message addressed to `deaf` until `until` (the node keeps
// sending: its round-0 vertex and timeout votes still reach the others).
void MakeDeaf(SimNetwork& network, NodeId deaf, TimeMicros until) {
  network.SetAdversary(
      [deaf, until](NodeId, NodeId to, MsgType, TimeMicros now) -> TimeMicros {
        if (to == deaf && now < until) {
          return kDropMessage;
        }
        return 0;
      });
}

TEST(SyncIntegration, DeafNodeCatchesUpThroughFetchProtocol) {
  SyncCluster::Options opts;
  opts.n = 4;
  opts.round_timeout = Millis(200);
  opts.gc_depth = 8;  // Small: peers prune, forcing WAL-backed history serving.
  SyncCluster cluster(opts);
  constexpr NodeId kDeaf = 3;

  MakeDeaf(cluster.network(), kDeaf, Seconds(4));
  cluster.StartAll();
  cluster.RunUntil(Seconds(4));

  const int64_t peer_mid = cluster.node(0).consensus().LastCommittedRound();
  ASSERT_GT(peer_mid, 10) << "survivors must keep committing while one node is deaf";
  EXPECT_LT(cluster.node(kDeaf).consensus().LastCommittedRound(), peer_mid / 2);

  cluster.RunUntil(Seconds(12));

  const int64_t peer = cluster.node(0).consensus().LastCommittedRound();
  const int64_t deaf = cluster.node(kDeaf).consensus().LastCommittedRound();
  EXPECT_GT(peer, peer_mid);
  EXPECT_GE(deaf + 4, peer) << "deaf node failed to catch up";

  // The repair ran through the fetch protocol, including pruned history
  // served back out of a peer's WAL.
  const SyncStats deaf_stats = cluster.node(kDeaf).sync_stats();
  EXPECT_GT(deaf_stats.requests_sent, 0u);
  EXPECT_GT(deaf_stats.vertices_fetched, 0u);
  const SyncStats total = cluster.TotalSyncStats();
  EXPECT_GT(total.requests_served, 0u);
  EXPECT_GT(total.wal_vertices_served, 0u);

  // Same committed prefix as everyone else.
  SyncCluster::ExpectPrefixConsistent(cluster.Ordered(kDeaf), cluster.Ordered(0));
  EXPECT_GT(cluster.Ordered(kDeaf).size(), 0u);
}

TEST(SyncIntegration, DeafNodeCatchesUpDespiteBlockWithholding) {
  SyncCluster::Options opts;
  opts.n = 7;
  opts.round_timeout = Millis(250);
  opts.gc_depth = 16;
  opts.behaviors = {ByzantineBehavior::kWithholdBlocks};
  opts.byzantine = {1};
  opts.withhold_keep = 3;  // >= f_c + 1 block receivers stay served.
  SyncCluster cluster(opts);
  constexpr NodeId kDeaf = 6;

  MakeDeaf(cluster.network(), kDeaf, Seconds(4));
  cluster.StartAll();
  cluster.RunUntil(Seconds(14));

  const int64_t peer = cluster.node(0).consensus().LastCommittedRound();
  const int64_t deaf = cluster.node(kDeaf).consensus().LastCommittedRound();
  ASSERT_GT(peer, 10);
  EXPECT_GE(deaf + 4, peer);
  EXPECT_GT(cluster.node(kDeaf).sync_stats().vertices_fetched, 0u);

  for (NodeId id = 0; id < opts.n; ++id) {
    if (!cluster.IsByzantine(id)) {
      SyncCluster::ExpectPrefixConsistent(cluster.Ordered(id), cluster.Ordered(0));
    }
  }
}

TEST(SyncIntegration, CrashedNodeRestartsFromWalAndRejoins) {
  SyncCluster::Options opts;
  opts.n = 4;
  opts.round_timeout = Millis(300);
  opts.gc_depth = 16;
  SyncCluster cluster(opts);
  constexpr NodeId kVictim = 3;

  cluster.StartAll();
  cluster.RunUntil(Seconds(3));
  const int64_t committed_at_crash = cluster.node(kVictim).consensus().LastCommittedRound();
  ASSERT_GT(committed_at_crash, 0);
  const OrderLog first_life = cluster.Ordered(kVictim);
  cluster.Crash(kVictim);

  cluster.RunUntil(Seconds(6));
  AppNode& restarted = cluster.Restart(kVictim);

  // WAL replay restored the durable committed prefix...
  const RecoveryStats& rec = restarted.recovery_stats();
  EXPECT_TRUE(rec.recovered);
  EXPECT_GT(rec.wal_records, 0u);
  ASSERT_GT(rec.restored_vertices, 0u);
  EXPECT_GT(rec.resume_round, 0u);
  // ... and the prefix is exactly the order the cluster agreed on.
  const RecoveryState& state = cluster.Recovered(kVictim);
  ASSERT_EQ(state.ordered.size(), rec.restored_vertices);
  ASSERT_LE(state.ordered.size(), first_life.size());
  for (size_t i = 0; i < state.ordered.size(); ++i) {
    EXPECT_EQ(std::make_pair(state.ordered[i].round, state.ordered[i].source), first_life[i]);
  }
  // Resumes proposing strictly above every round of its previous life.
  EXPECT_GE(rec.resume_round, static_cast<Round>(committed_at_crash));

  cluster.RunUntil(Seconds(12));

  const int64_t victim = restarted.consensus().LastCommittedRound();
  const int64_t peer = cluster.node(0).consensus().LastCommittedRound();
  EXPECT_GE(victim + 4, peer) << "restarted node failed to close the gap";
  EXPECT_GT(restarted.sync_stats().vertices_fetched, 0u) << "gap must be fetched";

  // Identical ordered output: replayed prefix + live stream == peer order.
  const OrderLog& reference = cluster.Ordered(0);
  const OrderLog& live = cluster.RestartOrdered(kVictim);
  EXPECT_GT(live.size(), 0u);
  const size_t prefix = rec.restored_vertices;
  for (size_t i = 0; i < live.size() && prefix + i < reference.size(); ++i) {
    ASSERT_EQ(live[i], reference[prefix + i]) << "post-restart divergence at " << i;
  }
}

TEST(SyncIntegration, CrashRecoveryDespiteBlockWithholding) {
  SyncCluster::Options opts;
  opts.n = 7;
  opts.round_timeout = Millis(300);
  opts.gc_depth = 16;
  opts.behaviors = {ByzantineBehavior::kWithholdBlocks};
  opts.byzantine = {1};
  opts.withhold_keep = 3;
  SyncCluster cluster(opts);
  constexpr NodeId kVictim = 6;

  cluster.StartAll();
  cluster.RunUntil(Seconds(3));
  cluster.Crash(kVictim);
  cluster.RunUntil(Seconds(6));
  AppNode& restarted = cluster.Restart(kVictim);
  EXPECT_TRUE(restarted.recovery_stats().recovered);
  cluster.RunUntil(Seconds(13));

  const int64_t victim = restarted.consensus().LastCommittedRound();
  const int64_t peer = cluster.node(0).consensus().LastCommittedRound();
  ASSERT_GT(peer, 10);
  EXPECT_GE(victim + 4, peer);

  const OrderLog& reference = cluster.Ordered(0);
  const OrderLog& live = cluster.RestartOrdered(kVictim);
  const size_t prefix = restarted.recovery_stats().restored_vertices;
  for (size_t i = 0; i < live.size() && prefix + i < reference.size(); ++i) {
    ASSERT_EQ(live[i], reference[prefix + i]) << "post-restart divergence at " << i;
  }
}

TEST(SyncIntegration, RestartWithoutWalStartsFresh) {
  SyncCluster::Options opts;
  opts.n = 4;
  opts.use_wal = false;
  // Without a WAL there is no history serving: peers must not prune, or the
  // amnesiac node's gap becomes unobtainable (the documented limitation).
  opts.gc_depth = 1000000;
  SyncCluster cluster(opts);
  cluster.StartAll();
  cluster.RunUntil(Seconds(2));
  cluster.Crash(3);
  cluster.RunUntil(Seconds(4));
  AppNode& restarted = cluster.Restart(3);
  EXPECT_FALSE(restarted.recovery_stats().recovered);
  cluster.RunUntil(Seconds(10));
  // Even without persistence the fetch path rebuilds the DAG from peers.
  EXPECT_GE(restarted.consensus().LastCommittedRound() + 4,
            cluster.node(0).consensus().LastCommittedRound());
  EXPECT_GT(restarted.sync_stats().vertices_fetched, 0u);
  SyncCluster::ExpectPrefixConsistent(cluster.RestartOrdered(3), cluster.Ordered(0));
}

}  // namespace
}  // namespace clandag
