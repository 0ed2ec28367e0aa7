#include "rbc/wire.h"

namespace clandag {

void RbcVoteMsg::SignedMessageTo(Writer& w, MsgType type, NodeId sender, Round round,
                                 const Digest& digest) {
  w.U16(type);
  w.U32(sender);
  w.U64(round);
  digest.Serialize(w);
}

Bytes RbcVoteMsg::Encode() const {
  Writer w;
  EncodeTo(w);
  return w.Take();
}

void RbcVoteMsg::EncodeTo(Writer& w) const {
  w.U32(sender);
  w.U64(round);
  digest.Serialize(w);
  w.Bool(sig.has_value());
  if (sig.has_value()) {
    sig->Serialize(w);
  }
}

std::optional<RbcVoteMsg> RbcVoteMsg::Decode(const Bytes& payload) {
  Reader r(payload);
  RbcVoteMsg m;
  m.sender = r.U32();
  m.round = r.U64();
  m.digest = Digest::Parse(r);
  if (r.Bool()) {
    m.sig = Signature::Parse(r);
  }
  if (!r.ok() || !r.AtEnd()) {
    return std::nullopt;
  }
  return m;
}

Bytes RbcCertMsg::Encode() const {
  Writer w;
  EncodeTo(w);
  return w.Take();
}

void RbcCertMsg::EncodeTo(Writer& w) const {
  w.U32(sender);
  w.U64(round);
  digest.Serialize(w);
  sig.Serialize(w);
}

std::optional<RbcCertMsg> RbcCertMsg::Decode(const Bytes& payload) {
  Reader r(payload);
  RbcCertMsg m;
  m.sender = r.U32();
  m.round = r.U64();
  m.digest = Digest::Parse(r);
  m.sig = MultiSig::Parse(r);
  if (!r.ok() || !r.AtEnd()) {
    return std::nullopt;
  }
  return m;
}

}  // namespace clandag
