// Micro-benchmarks (google-benchmark) of the primitives on the protocol's
// hot paths: hashing, authenticators, serialization, quorum tracking, DAG
// operations, and the clan-sizing statistics.

#include <benchmark/benchmark.h>

#include "common/codec.h"
#include "crypto/hmac.h"
#include "crypto/keychain.h"
#include "crypto/multisig.h"
#include "crypto/reed_solomon.h"
#include "crypto/sha256_kernels.h"
#include "dag/dag_store.h"
#include "rbc/quorum.h"
#include "stats/clan_sizing.h"
#include "stats/multiclan.h"

namespace clandag {
namespace {

// Hashing and MAC runs carry the compression kernel CPUID picked, so a
// result says which path the host ran.
void LabelKernel(benchmark::State& state) {
  state.SetLabel(sha256_kernels::ActiveName());
}

// One block of data plus a padding block: the cost of a short digest.
void BM_Sha256_64B(benchmark::State& state) {
  Bytes data(64, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 64);
  LabelKernel(state);
}
BENCHMARK(BM_Sha256_64B);

void BM_Sha256_1KB(benchmark::State& state) {
  Bytes data(1024, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
  LabelKernel(state);
}
BENCHMARK(BM_Sha256_1KB);

void BM_Sha256_3MB_Proposal(benchmark::State& state) {
  Bytes data(3u << 20, 0xcd);  // The paper's full proposal size.
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
  LabelKernel(state);
}
BENCHMARK(BM_Sha256_3MB_Proposal);

void BM_HmacSign(benchmark::State& state) {
  Keychain keychain(1, 4);
  Bytes msg(64, 0x11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(keychain.Sign(0, msg));
  }
  LabelKernel(state);
}
BENCHMARK(BM_HmacSign);

// Checking one 64-byte authenticator: Arg 1 through the cached key schedule
// (what Keychain::Verify does), Arg 0 one-shot, re-hashing both key pads.
void BM_HmacKeyVerify(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  const Bytes key(32, 0x5c);
  const HmacKey schedule(key);
  Bytes msg(64, 0x11);
  const Sha256::DigestBytes expected = schedule.Mac(msg);
  for (auto _ : state) {
    const Sha256::DigestBytes mac =
        cached ? schedule.Mac(msg)
               : HmacSha256(key, msg);  // lint:allow(hmac-per-call-key): the one-shot baseline
    benchmark::DoNotOptimize(mac == expected);
  }
  LabelKernel(state);
}
BENCHMARK(BM_HmacKeyVerify)->ArgName("cached")->Arg(0)->Arg(1);

void BM_MultiSigVerify(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  Keychain keychain(1, n);
  Bytes msg(64, 0x22);
  SignerBitmap bm(n);
  std::vector<Signature> parts;
  for (NodeId id = 0; id < (2 * n) / 3 + 1; ++id) {
    bm.Set(id);
    parts.push_back(keychain.Sign(id, msg));
  }
  MultiSig sig = MultiSig::Aggregate(bm, parts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sig.Verify(keychain, msg));
  }
  LabelKernel(state);
}
BENCHMARK(BM_MultiSigVerify)->Arg(50)->Arg(150);

void BM_VertexSerializeParse(benchmark::State& state) {
  const uint32_t edges = static_cast<uint32_t>(state.range(0));
  Vertex v;
  v.round = 10;
  v.source = 3;
  for (uint32_t i = 0; i < edges; ++i) {
    v.strong_edges.push_back(StrongEdge{i, Digest::Of(Bytes{static_cast<uint8_t>(i)})});
  }
  for (auto _ : state) {
    Writer w;
    v.Serialize(w);
    Reader r(w.Buffer());
    benchmark::DoNotOptimize(Vertex::Parse(r));
  }
}
BENCHMARK(BM_VertexSerializeParse)->Arg(34)->Arg(101);

void BM_VoteTrackerQuorum(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    VoteTracker tracker(n);
    for (NodeId id = 0; id < n; ++id) {
      tracker.Add(id, id < n / 3, std::nullopt);
    }
    benchmark::DoNotOptimize(tracker.Count());
  }
}
BENCHMARK(BM_VoteTrackerQuorum)->Arg(50)->Arg(150);

void BM_DagOrderHistory(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    DagStore dag(n);
    for (Round r = 0; r < 4; ++r) {
      for (NodeId src = 0; src < n; ++src) {
        Vertex v;
        v.round = r;
        v.source = src;
        if (r > 0) {
          for (NodeId p = 0; p < n; ++p) {
            v.strong_edges.push_back(StrongEdge{p, *dag.DigestOf(r - 1, p)});
          }
        }
        dag.Insert(std::move(v));
      }
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(dag.OrderHistory(3, 0));
  }
}
BENCHMARK(BM_DagOrderHistory)->Arg(50)->Arg(150);

void BM_RsEncode256KB(benchmark::State& state) {
  // §3 remark: the per-proposal erasure-coding cost the paper avoids.
  ReedSolomon rs(17, 33);  // n = 50, k = f+1.
  Bytes data(256u << 10, 0x5c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.Encode(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_RsEncode256KB);

void BM_RsDecode256KB(benchmark::State& state) {
  ReedSolomon rs(17, 33);
  Bytes data(256u << 10, 0x5c);
  std::vector<RsShare> shares = rs.Encode(data);
  // Decode from parity shares (the expensive, non-systematic path).
  std::vector<RsShare> subset(shares.end() - 17, shares.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.Decode(subset));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_RsDecode256KB);

void BM_HypergeometricTail(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(DishonestMajorityProbability(500, 166, 184));
  }
}
BENCHMARK(BM_HypergeometricTail);

void BM_MinClanSize(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(MinClanSizeForTribe(500, 30.0));
  }
}
BENCHMARK(BM_MinClanSize);

void BM_MultiClanExact(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(MultiClanDishonestProbability(150, 49, 2, 75));
  }
}
BENCHMARK(BM_MultiClanExact);

}  // namespace
}  // namespace clandag
