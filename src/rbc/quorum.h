// Vote bookkeeping for broadcast quorums.

#ifndef CLANDAG_RBC_QUORUM_H_
#define CLANDAG_RBC_QUORUM_H_

#include <optional>
#include <utility>
#include <vector>

#include "crypto/multisig.h"

namespace clandag {

// Counts distinct voters for one (instance, digest) pair, tracking how many
// come from inside a clan and retaining signatures for certificate assembly.
//
// Signatures live in a flat append-only vector (the voter bitmap already
// deduplicates), reserved once on the first signed vote — one allocation per
// tracker instead of one map node per vote on the consensus hot path. Once the
// certificate is built, or no longer needed, Seal() frees them.
class VoteTracker {
 public:
  explicit VoteTracker(uint32_t num_nodes) : voters_(num_nodes) {}

  // Returns true iff `voter` had not voted here before.
  bool Add(NodeId voter, bool in_clan, std::optional<Signature> sig);

  uint32_t Count() const { return voters_.Count(); }
  uint32_t ClanCount() const { return clan_count_; }
  bool Voted(NodeId voter) const { return voters_.Test(voter); }
  const SignerBitmap& voters() const { return voters_; }

  // Voters from the clan, in id order (value-holders for pulls).
  std::vector<NodeId> ClanVoters(const std::vector<NodeId>& clan) const;

  // Aggregates the retained signatures into a certificate (must not be
  // sealed).
  MultiSig BuildCert() const;

  // Frees the retained signatures and stops retaining new ones. Voters and
  // counts keep working; only BuildCert is gone.
  void Seal();
  // Signatures' worth of storage held (for tests).
  size_t SignatureCapacity() const { return sigs_.capacity(); }

 private:
  SignerBitmap voters_;
  uint32_t clan_count_ = 0;
  bool sealed_ = false;
  std::vector<std::pair<NodeId, Signature>> sigs_;  // Unsorted; BuildCert sorts.
};

}  // namespace clandag

#endif  // CLANDAG_RBC_QUORUM_H_
