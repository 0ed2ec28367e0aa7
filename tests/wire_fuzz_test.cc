// Decoder robustness: every wire parser must reject (never crash on)
// arbitrary, truncated, or bit-flipped bytes — exactly what Byzantine peers
// can feed a node. Deterministic pseudo-fuzz with seeded RNG.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "consensus/poa_baseline.h"
#include "consensus/wire.h"
#include "net/client_wire.h"
#include "rbc/wire.h"
#include "smr/mempool.h"
#include "sync/recovery.h"
#include "sync/snapshot.h"
#include "sync/sync_wire.h"
#include "sync/wal.h"

namespace clandag {
namespace {

Bytes RandomBytes(DetRng& rng, size_t len) {
  Bytes out(len);
  for (size_t i = 0; i < len; ++i) {
    out[i] = static_cast<uint8_t>(rng.Next());
  }
  return out;
}

// Runs `decode` over random buffers of assorted sizes; the only requirement
// is no crash/UB (return value may be anything).
template <typename Fn>
void FuzzRandom(uint64_t seed, Fn&& decode) {
  DetRng rng(seed);
  for (size_t len : {0u, 1u, 2u, 7u, 16u, 33u, 64u, 200u, 1000u}) {
    for (int trial = 0; trial < 50; ++trial) {
      Bytes buf = RandomBytes(rng, len);
      decode(buf);
    }
  }
}

// Truncations and single-bit flips of a valid encoding.
template <typename Fn>
void FuzzMutations(const Bytes& valid, Fn&& decode) {
  for (size_t cut = 0; cut < valid.size(); ++cut) {
    Bytes truncated(valid.begin(), valid.begin() + cut);
    decode(truncated);
  }
  DetRng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes mutated = valid;
    mutated[rng.NextBelow(mutated.size())] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
    decode(mutated);
  }
}

TEST(WireFuzz, RbcVoteMsg) {
  FuzzRandom(2, [](const Bytes& b) { (void)RbcVoteMsg::Decode(b); });
  RbcVoteMsg msg;
  msg.sender = 3;
  msg.round = 9;
  msg.digest = Digest::Of(ToBytes("y"));
  msg.sig = Signature{Digest::Of(ToBytes("sig"))};
  FuzzMutations(msg.Encode(), [](const Bytes& b) { (void)RbcVoteMsg::Decode(b); });
}

TEST(WireFuzz, RbcCertMsg) {
  FuzzRandom(3, [](const Bytes& b) { (void)RbcCertMsg::Decode(b); });
  Keychain keychain(1, 4);
  SignerBitmap bm(4);
  bm.Set(0);
  bm.Set(1);
  bm.Set(2);
  RbcCertMsg msg;
  msg.sender = 1;
  msg.round = 2;
  msg.digest = Digest::Of(ToBytes("z"));
  msg.sig = MultiSig::Aggregate(bm, {keychain.Sign(0, ToBytes("m")), keychain.Sign(1, ToBytes("m")),
                                     keychain.Sign(2, ToBytes("m"))});
  FuzzMutations(msg.Encode(), [](const Bytes& b) { (void)RbcCertMsg::Decode(b); });
}

TEST(WireFuzz, PullMsgs) {
  FuzzRandom(6, [](const Bytes& b) { (void)ConsPullMsg::Decode(b); });
}

TEST(WireFuzz, Vertex) {
  FuzzRandom(7, [](const Bytes& b) { (void)DecodeVertex(b); });
  Vertex v;
  v.round = 4;
  v.source = 2;
  v.block_digest = Digest::Of(ToBytes("blk"));
  v.strong_edges = {StrongEdge{0, Digest::Of(ToBytes("a"))},
                    StrongEdge{1, Digest::Of(ToBytes("b"))},
                    StrongEdge{3, Digest::Of(ToBytes("c"))}};
  v.weak_edges = {WeakEdge{1, 2, Digest::Of(ToBytes("w"))}};
  FuzzMutations(EncodeVertex(v), [](const Bytes& b) { (void)DecodeVertex(b); });
}

TEST(WireFuzz, Block) {
  FuzzRandom(8, [](const Bytes& b) { (void)DecodeBlock(b); });
  BlockInfo block;
  block.proposer = 1;
  block.round = 2;
  block.tx_count = 100;
  block.tx_size = 512;
  block.payload = ToBytes("real payload bytes");
  FuzzMutations(EncodeBlock(block), [](const Bytes& b) { (void)DecodeBlock(b); });
}

TEST(WireFuzz, TimeoutAndNoVote) {
  FuzzRandom(9, [](const Bytes& b) { (void)TimeoutMsg::Decode(b); });
  FuzzRandom(10, [](const Bytes& b) { (void)NoVoteMsg::Decode(b); });
  TimeoutMsg to;
  to.round = 3;
  to.sig = Signature{Digest::Of(ToBytes("t"))};
  FuzzMutations(to.Encode(), [](const Bytes& b) { (void)TimeoutMsg::Decode(b); });
}

TEST(WireFuzz, TxBatch) {
  FuzzRandom(11, [](const Bytes& b) { (void)DecodeTxBatch(b); });
  std::vector<Transaction> txs = {{1, 10, ToBytes("aa")}, {2, 20, ToBytes("bb")}};
  FuzzMutations(EncodeTxBatch(txs), [](const Bytes& b) { (void)DecodeTxBatch(b); });
}

TEST(WireFuzz, WalRecord) {
  // A corrupted WAL (bit rot, torn writes the framing CRC missed) must never
  // crash recovery — a node that cannot restart is a node lost forever.
  FuzzRandom(15, [](const Bytes& b) { (void)DecodeWalRecord(b); });
  Vertex v;
  v.round = 6;
  v.source = 1;
  v.block_digest = Digest::Of(ToBytes("wal blk"));
  v.strong_edges = {StrongEdge{0, Digest::Of(ToBytes("p"))}};
  FuzzMutations(EncodeVertexRecord(v), [](const Bytes& b) { (void)DecodeWalRecord(b); });
  FuzzMutations(EncodeAnchorRecord(9), [](const Bytes& b) { (void)DecodeWalRecord(b); });
  FuzzMutations(EncodeProposalRecord(11), [](const Bytes& b) { (void)DecodeWalRecord(b); });
  EXPECT_TRUE(DecodeWalRecord(EncodeVertexRecord(v)).has_value());
  EXPECT_TRUE(DecodeWalRecord(EncodeAnchorRecord(9)).has_value());
  EXPECT_TRUE(DecodeWalRecord(EncodeProposalRecord(11)).has_value());
}

TEST(WireFuzz, PoaCert) {
  FuzzRandom(12, [](const Bytes& b) {
    Reader r(b);
    PoaCert::Parse(r);
  });
}

TEST(WireFuzz, FetchRequest) {
  FuzzRandom(13, [](const Bytes& b) { (void)FetchRequestMsg::Decode(b); });
  FetchRequestMsg req;
  req.low_watermark = 17;
  req.wants = {VertexRef{20, 1}, VertexRef{21, 3}};
  FuzzMutations(req.Encode(), [](const Bytes& b) { (void)FetchRequestMsg::Decode(b); });
  EXPECT_TRUE(FetchRequestMsg::Decode(req.Encode()).has_value());
}

TEST(WireFuzz, FetchResponse) {
  FuzzRandom(14, [](const Bytes& b) { (void)FetchResponseMsg::Decode(b); });
  FetchResponseMsg resp;
  Vertex v;
  v.round = 4;
  v.source = 2;
  v.strong_edges = {StrongEdge{0, Digest::Of(ToBytes("p"))}};
  resp.vertices.push_back(v);
  FuzzMutations(resp.Encode(), [](const Bytes& b) { (void)FetchResponseMsg::Decode(b); });
  EXPECT_TRUE(FetchResponseMsg::Decode(resp.Encode()).has_value());
}

// Oversized element counts in fetch messages must be rejected before any
// allocation is sized from them.
TEST(WireFuzz, FetchRequestHugeWantCountRejected) {
  Writer w;
  w.U64(0);                 // low watermark
  w.Varint(0xffffffffULL);  // absurd want count
  EXPECT_FALSE(FetchRequestMsg::Decode(w.Buffer()).has_value());
  Writer w2;
  w2.U64(0);
  w2.Varint(kMaxFetchWants + 1);
  EXPECT_FALSE(FetchRequestMsg::Decode(w2.Buffer()).has_value());
  Writer w3;
  w3.U64(0);
  w3.Varint(0);  // Empty requests are also invalid.
  EXPECT_FALSE(FetchRequestMsg::Decode(w3.Buffer()).has_value());
}

TEST(WireFuzz, FetchResponseHugeVertexCountRejected) {
  Writer w;
  w.Varint(0xffffffffffULL);
  EXPECT_FALSE(FetchResponseMsg::Decode(w.Buffer()).has_value());
  Writer w2;
  w2.Varint(kMaxFetchVertices + 1);
  EXPECT_FALSE(FetchResponseMsg::Decode(w2.Buffer()).has_value());
}

TEST(WireFuzz, SnapshotOffer) {
  FuzzRandom(18, [](const Bytes& b) { (void)SnapshotOfferMsg::Decode(b); });
  SnapshotOfferMsg offer;
  offer.seq = 3;
  offer.last_committed = 40;
  offer.order_count = 120;
  offer.total_bytes = 5000;
  offer.chunk_size = 4096;
  offer.total_checksum = 0xdeadbeef;
  FuzzMutations(offer.Encode(), [](const Bytes& b) { (void)SnapshotOfferMsg::Decode(b); });
  EXPECT_TRUE(SnapshotOfferMsg::Decode(offer.Encode()).has_value());
}

TEST(WireFuzz, SnapshotChunkRequest) {
  FuzzRandom(19, [](const Bytes& b) { (void)SnapshotChunkRequestMsg::Decode(b); });
  SnapshotChunkRequestMsg req;
  req.seq = 3;
  req.chunk_index = 7;
  FuzzMutations(req.Encode(),
                [](const Bytes& b) { (void)SnapshotChunkRequestMsg::Decode(b); });
  EXPECT_TRUE(SnapshotChunkRequestMsg::Decode(req.Encode()).has_value());
}

TEST(WireFuzz, SnapshotChunk) {
  FuzzRandom(20, [](const Bytes& b) { (void)SnapshotChunkMsg::Decode(b); });
  SnapshotChunkMsg chunk;
  chunk.seq = 3;
  chunk.chunk_index = 1;
  chunk.chunk_count = 2;
  chunk.data = ToBytes("snapshot bytes");
  chunk.checksum = WalChecksum(chunk.data.data(), chunk.data.size());
  FuzzMutations(chunk.Encode(), [](const Bytes& b) { (void)SnapshotChunkMsg::Decode(b); });
  EXPECT_TRUE(SnapshotChunkMsg::Decode(chunk.Encode()).has_value());
}

// A chunk claiming more payload than the per-chunk cap must be rejected
// before the Bytes copy is sized from it.
TEST(WireFuzz, SnapshotChunkOversizedRejected) {
  Writer w;
  w.U64(1);                          // seq
  w.U32(0);                          // chunk_index
  w.U32(1);                          // chunk_count
  w.U32(0);                          // checksum
  w.Varint(kMaxSnapshotChunkBytes + 1);
  EXPECT_FALSE(SnapshotChunkMsg::Decode(w.Buffer()).has_value());
}

TEST(WireFuzz, SnapshotData) {
  FuzzRandom(21, [](const Bytes& b) { (void)DecodeSnapshotData(b); });
  SnapshotData snap;
  snap.seq = 2;
  snap.last_committed = 16;
  snap.order_count = 48;
  snap.dag_floor = 9;
  snap.propose_floor = 17;
  snap.initial_balance = 1000;
  snap.balances = {{1, 900}, {4, 1100}};
  snap.state_digest = Digest::Of(ToBytes("state"));
  snap.executed_txs = 30;
  snap.rejected_txs = 2;
  Vertex v;
  v.round = 16;
  v.source = 1;
  v.strong_edges = {StrongEdge{0, Digest::Of(ToBytes("p"))}};
  snap.vertices.push_back(v);
  snap.ordered.push_back(1);
  FuzzMutations(EncodeSnapshotData(snap),
                [](const Bytes& b) { (void)DecodeSnapshotData(b); });
  EXPECT_TRUE(DecodeSnapshotData(EncodeSnapshotData(snap)).has_value());
}

// Trailing junk after a well-formed fetch message must invalidate it.
TEST(WireFuzz, FetchTrailingJunkRejected) {
  FetchRequestMsg req;
  req.low_watermark = 1;
  req.wants = {VertexRef{2, 0}};
  Bytes b = req.Encode();
  b.push_back(0xab);
  EXPECT_FALSE(FetchRequestMsg::Decode(b).has_value());
}

// A vertex claiming absurd edge counts must be rejected, not allocated.
TEST(WireFuzz, VertexHugeEdgeCountRejected) {
  Writer w;
  w.U64(1);                      // round
  w.U32(0);                      // source
  Digest().Serialize(w);         // block digest
  w.U32(0);                      // tx count
  w.I64(0);                      // created_at
  w.Varint(0xffffffffULL);       // absurd strong-edge count
  auto v = DecodeVertex(w.Buffer());
  EXPECT_FALSE(v.has_value());
}

// Client request frames come straight from untrusted clients — the most
// exposed decoder in the system.
TEST(WireFuzz, ClientRequestMsg) {
  FuzzRandom(16, [](const Bytes& b) { (void)ClientRequestMsg::Decode(b); });
  ClientRequestMsg msg;
  msg.client_id = 77;
  msg.client_seq = 12345;
  msg.payload = ToBytes("transfer 3 coins");
  FuzzMutations(msg.Encode(), [](const Bytes& b) { (void)ClientRequestMsg::Decode(b); });
  EXPECT_TRUE(ClientRequestMsg::Decode(msg.Encode()).has_value());
}

TEST(WireFuzz, ClientReplyMsg) {
  FuzzRandom(17, [](const Bytes& b) { (void)ClientReplyMsg::Decode(b); });
  ClientReplyMsg msg;
  msg.client_id = 77;
  msg.client_seq = 12345;
  msg.status = ClientReplyStatus::kCommitted;
  msg.round = 42;
  msg.proposer = 3;
  msg.state_digest = Digest::Of(ToBytes("state"));
  FuzzMutations(msg.Encode(), [](const Bytes& b) { (void)ClientReplyMsg::Decode(b); });
  EXPECT_TRUE(ClientReplyMsg::Decode(msg.Encode()).has_value());
}

// A request claiming a payload over the hard cap must be rejected before
// any buffer is sized from the claimed length.
TEST(WireFuzz, ClientRequestOversizedPayloadRejected) {
  Writer w;
  w.U32(1);                              // client id
  w.U32(0);                              // client seq
  w.Varint(kMaxClientPayloadBytes + 1);  // absurd payload length
  EXPECT_FALSE(ClientRequestMsg::Decode(w.Buffer()).has_value());
}

// An out-of-range status byte from a Byzantine node must not map onto a
// valid enum value.
TEST(WireFuzz, ClientReplyBadStatusRejected) {
  ClientReplyMsg msg;
  msg.client_id = 1;
  msg.client_seq = 2;
  msg.status = ClientReplyStatus::kCommitted;
  Bytes b = msg.Encode();
  // The status byte follows the two u32 identifiers.
  b[8] = 0xee;
  EXPECT_FALSE(ClientReplyMsg::Decode(b).has_value());
}

// Valid encodings always round-trip (sanity for the fuzz corpus).
TEST(WireFuzz, ValidEncodingsAccepted) {
  RbcVoteMsg msg;
  msg.sender = 1;
  msg.round = 2;
  msg.digest = Digest::Of(ToBytes("ok"));
  EXPECT_TRUE(RbcVoteMsg::Decode(msg.Encode()).has_value());
  Vertex v;
  v.round = 0;
  v.source = 0;
  EXPECT_TRUE(DecodeVertex(EncodeVertex(v)).has_value());
}

}  // namespace
}  // namespace clandag
