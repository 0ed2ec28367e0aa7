// Vote and certificate messages of the tribe-assisted RBC (paper Figures 2
// and 3), as carried by the merged vertex+block broadcast in
// consensus/dissemination.h under the kConsEcho / kConsReady / kConsCert
// tags (consensus/wire.h).
//
// Instances are keyed by (sender, round): the designated sender of an
// instance is authenticated by the channel (its VAL arrives from the sender
// itself) and ECHO/READY/certificate messages name the instance explicitly.

#ifndef CLANDAG_RBC_WIRE_H_
#define CLANDAG_RBC_WIRE_H_

#include <optional>

#include "common/bytes.h"
#include "common/codec.h"
#include "crypto/digest.h"
#include "crypto/multisig.h"
#include "net/runtime.h"

namespace clandag {

using Round = uint64_t;

// ECHO / READY: (sender, round, digest) plus a signature in signed mode.
struct RbcVoteMsg {
  NodeId sender = 0;  // Designated sender of the instance.
  Round round = 0;
  Digest digest;
  std::optional<Signature> sig;

  // Bytes covered by the signature in signed mode, written into a
  // caller-provided Writer (reusable scratch on the hot path).
  static void SignedMessageTo(Writer& w, MsgType type, NodeId sender, Round round,
                              const Digest& digest);

  Bytes Encode() const;
  void EncodeTo(Writer& w) const;
  [[nodiscard]] static std::optional<RbcVoteMsg> Decode(const Bytes& payload);
};

// Echo-certificate EC_r(m) of the two-round protocol (Figure 3).
struct RbcCertMsg {
  NodeId sender = 0;
  Round round = 0;
  Digest digest;
  MultiSig sig;

  Bytes Encode() const;
  void EncodeTo(Writer& w) const;
  [[nodiscard]] static std::optional<RbcCertMsg> Decode(const Bytes& payload);
};

}  // namespace clandag

#endif  // CLANDAG_RBC_WIRE_H_
