#include "src/lock/types.h"

namespace frangipani {

namespace {

template <typename T>
StatusOr<T> Finish(const Decoder& dec, T value, const char* what) {
  if (!dec.ok()) {
    return InvalidArgument(std::string("malformed ") + what);
  }
  return value;
}

LockMode GetMode(Decoder& dec) {
  uint8_t m = dec.GetU8();
  if (m > static_cast<uint8_t>(LockMode::kExclusive)) {
    dec.Fail();
    return LockMode::kNone;
  }
  return static_cast<LockMode>(m);
}

void PutRange(Encoder& enc, LockRange r) {
  enc.PutU64(r.start);
  enc.PutU64(r.end);
}

LockRange GetRange(Decoder& dec) {
  LockRange r;
  r.start = dec.GetU64();
  r.end = dec.GetU64();
  return r;
}

}  // namespace

Bytes LockOpenRequest::Encode() const {
  Encoder enc;
  enc.PutString(table);
  return enc.Take();
}

StatusOr<LockOpenRequest> LockOpenRequest::Decode(const Bytes& raw) {
  Decoder dec(raw);
  LockOpenRequest m;
  m.table = dec.GetString();
  return Finish(dec, std::move(m), "open");
}

Bytes LockOpenReply::Encode() const {
  Encoder enc;
  enc.PutU32(slot);
  enc.PutI64(lease_us);
  return enc.Take();
}

StatusOr<LockOpenReply> LockOpenReply::Decode(const Bytes& raw) {
  Decoder dec(raw);
  LockOpenReply m;
  m.slot = dec.GetU32();
  m.lease_us = dec.GetI64();
  return Finish(dec, m, "open reply");
}

Bytes LockSlotRequest::Encode() const {
  Encoder enc;
  enc.PutU32(slot);
  return enc.Take();
}

StatusOr<LockSlotRequest> LockSlotRequest::Decode(const Bytes& raw) {
  Decoder dec(raw);
  LockSlotRequest m;
  m.slot = dec.GetU32();
  return Finish(dec, m, "slot request");
}

Bytes LockRenewReply::Encode() const {
  Encoder enc;
  enc.PutBool(ok);
  return enc.Take();
}

StatusOr<LockRenewReply> LockRenewReply::Decode(const Bytes& raw) {
  Decoder dec(raw);
  LockRenewReply m;
  m.ok = dec.GetBool();
  return Finish(dec, m, "renew reply");
}

Bytes LockModeRequest::Encode() const {
  Encoder enc;
  enc.PutU32(slot);
  enc.PutU64(lock);
  enc.PutU8(static_cast<uint8_t>(mode));
  PutRange(enc, range);
  return enc.Take();
}

StatusOr<LockModeRequest> LockModeRequest::Decode(const Bytes& raw) {
  Decoder dec(raw);
  LockModeRequest m;
  m.slot = dec.GetU32();
  m.lock = dec.GetU64();
  m.mode = GetMode(dec);
  m.range = GetRange(dec);
  return Finish(dec, m, "lock request");
}

Bytes LockGrantReply::Encode() const {
  Encoder enc;
  PutRange(enc, range);
  return enc.Take();
}

StatusOr<LockGrantReply> LockGrantReply::Decode(const Bytes& raw) {
  Decoder dec(raw);
  LockGrantReply m;
  m.range = GetRange(dec);
  return Finish(dec, m, "grant reply");
}

Bytes LockAckRequest::Encode() const {
  Encoder enc;
  enc.PutU32(slot);
  enc.PutU64(lock);
  return enc.Take();
}

StatusOr<LockAckRequest> LockAckRequest::Decode(const Bytes& raw) {
  Decoder dec(raw);
  LockAckRequest m;
  m.slot = dec.GetU32();
  m.lock = dec.GetU64();
  return Finish(dec, m, "ack");
}

Bytes LockAssignment::Encode() const {
  Encoder enc;
  enc.PutU32(static_cast<uint32_t>(servers.size()));
  for (NodeId s : servers) {
    enc.PutU32(s);
  }
  enc.PutU32(kNumLockGroups);
  for (NodeId s : groups) {
    enc.PutU32(s);
  }
  return enc.Take();
}

StatusOr<LockAssignment> LockAssignment::Decode(const Bytes& raw) {
  Decoder dec(raw);
  LockAssignment m;
  uint32_t nservers = dec.GetU32();
  for (uint32_t i = 0; i < nservers && dec.ok(); ++i) {
    m.servers.push_back(dec.GetU32());
  }
  if (dec.GetU32() != kNumLockGroups) {
    return InvalidArgument("malformed assignment: wrong group count");
  }
  for (NodeId& s : m.groups) {
    s = dec.GetU32();
  }
  return Finish(dec, std::move(m), "assignment");
}

Bytes ClerkRevokeRequest::Encode() const {
  Encoder enc;
  enc.PutU64(lock);
  enc.PutU8(static_cast<uint8_t>(mode));
  PutRange(enc, range);
  return enc.Take();
}

StatusOr<ClerkRevokeRequest> ClerkRevokeRequest::Decode(const Bytes& raw) {
  Decoder dec(raw);
  ClerkRevokeRequest m;
  m.lock = dec.GetU64();
  m.mode = GetMode(dec);
  m.range = GetRange(dec);
  return Finish(dec, m, "revoke");
}

Bytes ClerkHeldReply::Encode() const {
  Encoder enc;
  enc.PutU32(slot);
  enc.PutU32(static_cast<uint32_t>(holds.size()));
  for (const LockHold& h : holds) {
    enc.PutU64(h.lock);
    enc.PutU8(static_cast<uint8_t>(h.mode));
    PutRange(enc, h.range);
  }
  return enc.Take();
}

StatusOr<ClerkHeldReply> ClerkHeldReply::Decode(const Bytes& raw) {
  Decoder dec(raw);
  ClerkHeldReply m;
  m.slot = dec.GetU32();
  uint32_t count = dec.GetU32();
  for (uint32_t i = 0; i < count && dec.ok(); ++i) {
    LockHold h;
    h.slot = m.slot;
    h.lock = dec.GetU64();
    h.mode = GetMode(dec);
    h.range = GetRange(dec);
    m.holds.push_back(h);
  }
  return Finish(dec, std::move(m), "held-lock list");
}

Bytes LockCommand::Encode() const {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(kind));
  enc.PutU32(server);
  enc.PutU64(nonce);
  enc.PutString(table);
  enc.PutU32(clerk);
  enc.PutU32(slot);
  return enc.Take();
}

StatusOr<LockCommand> LockCommand::Decode(const Bytes& raw) {
  Decoder dec(raw);
  LockCommand cmd;
  cmd.kind = static_cast<LockCmdKind>(dec.GetU8());
  cmd.server = dec.GetU32();
  cmd.nonce = dec.GetU64();
  cmd.table = dec.GetString();
  cmd.clerk = dec.GetU32();
  cmd.slot = dec.GetU32();
  return Finish(dec, std::move(cmd), "lock command");
}

Bytes LockStateBlob::Encode() const {
  Encoder enc;
  enc.PutU32(static_cast<uint32_t>(slots.size()));
  for (const SlotRecord& s : slots) {
    enc.PutU32(s.slot);
    enc.PutString(s.table);
    enc.PutU32(s.clerk);
  }
  enc.PutU32(static_cast<uint32_t>(holds.size()));
  for (const LockHold& h : holds) {
    enc.PutU64(h.lock);
    enc.PutU32(h.slot);
    enc.PutU8(static_cast<uint8_t>(h.mode));
    PutRange(enc, h.range);
  }
  Encoder framed;
  framed.PutU32(static_cast<uint32_t>(enc.size()));
  framed.PutRaw(enc.buffer().data(), enc.size());
  return framed.Take();
}

uint64_t LockStateBlob::StoredSize(const Bytes& header) {
  Decoder dec(header);
  uint32_t body = dec.GetU32();
  return dec.ok() && body > 0 ? kHeaderBytes + body : 0;
}

StatusOr<LockStateBlob> LockStateBlob::Decode(const Bytes& raw) {
  Decoder dec(raw);
  LockStateBlob m;
  uint32_t body = dec.GetU32();
  if (body != dec.remaining()) {
    return InvalidArgument("malformed lock state blob: wrong byte count");
  }
  uint32_t nslots = dec.GetU32();
  for (uint32_t i = 0; i < nslots && dec.ok(); ++i) {
    SlotRecord s;
    s.slot = dec.GetU32();
    s.table = dec.GetString();
    s.clerk = dec.GetU32();
    m.slots.push_back(std::move(s));
  }
  uint32_t nholds = dec.GetU32();
  for (uint32_t i = 0; i < nholds && dec.ok(); ++i) {
    LockHold h;
    h.lock = dec.GetU64();
    h.slot = dec.GetU32();
    h.mode = GetMode(dec);
    h.range = GetRange(dec);
    m.holds.push_back(h);
  }
  return Finish(dec, std::move(m), "lock state blob");
}

}  // namespace frangipani
