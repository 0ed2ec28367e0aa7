#include "rbc/quorum.h"

#include <algorithm>

#include "common/check.h"

namespace clandag {

bool VoteTracker::Add(NodeId voter, bool in_clan, std::optional<Signature> sig) {
  if (voters_.Test(voter)) {
    return false;
  }
  voters_.Set(voter);
  if (in_clan) {
    ++clan_count_;
  }
  if (sig.has_value() && !sealed_) {
    if (sigs_.empty()) {
      sigs_.reserve(voters_.num_parties());
    }
    // capped at num_parties: the voters_ bitmap above dedups voters before this append.
    sigs_.emplace_back(voter, *sig);
  }
  return true;
}

std::vector<NodeId> VoteTracker::ClanVoters(const std::vector<NodeId>& clan) const {
  std::vector<NodeId> out;
  for (NodeId id : clan) {
    if (voters_.Test(id)) {
      out.push_back(id);
    }
  }
  return out;
}

MultiSig VoteTracker::BuildCert() const {
  CLANDAG_CHECK(!sealed_);
  // MultiSig::Aggregate wants parts aligned with signers.Ids() (id order);
  // votes arrive in network order, so sort a copy.
  std::vector<std::pair<NodeId, Signature>> sorted = sigs_;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  SignerBitmap signers(voters_.num_parties());
  std::vector<Signature> parts;
  parts.reserve(sorted.size());
  for (const auto& [id, sig] : sorted) {
    signers.Set(id);
    parts.push_back(sig);
  }
  return MultiSig::Aggregate(signers, parts);
}

void VoteTracker::Seal() {
  sealed_ = true;
  std::vector<std::pair<NodeId, Signature>>().swap(sigs_);
}

}  // namespace clandag
