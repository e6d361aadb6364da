#include "src/paxos/paxos.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/base/logging.h"
#include "src/base/rng.h"

namespace frangipani {
namespace {

// A proposed value is its command behind the proposer's node id (u32) and
// sequence number (u64).
constexpr size_t kEnvelopeBytes = 12;

Bytes Envelope(NodeId proposer, uint64_t seq, const Bytes& command) {
  Encoder enc;
  enc.PutU32(proposer);
  enc.PutU64(seq);
  enc.PutRaw(command.data(), command.size());
  return enc.Take();
}

}  // namespace

PaxosPeer::PaxosPeer(Network* net, NodeId self, std::vector<NodeId> members,
                     PaxosDurableState* durable,
                     std::function<ApplyResult(uint64_t, const Bytes&)> on_apply)
    : net_(net),
      self_(self),
      members_(std::move(members)),
      durable_(durable),
      on_apply_(std::move(on_apply)) {
  net_->RegisterService(self_, kServiceName, this);
}

StatusOr<Bytes> PaxosPeer::CallPeer(NodeId peer, uint32_t method, const Bytes& request) {
  if (peer == self_) {
    return Handle(method, request, self_);
  }
  return net_->Call(self_, peer, kServiceName, method, request);
}

StatusOr<Bytes> PaxosPeer::Handle(uint32_t method, const Bytes& request, NodeId from) {
  Decoder dec(request);
  Bytes reply;
  switch (method) {
    case kPrepare:
      reply = HandlePrepare(dec);
      break;
    case kAccept:
      reply = HandleAccept(dec);
      break;
    case kLearn:
      reply = HandleLearn(dec);
      break;
    case kGetChosen:
      reply = HandleGetChosen(dec);
      break;
    default:
      return InvalidArgument("unknown paxos method");
  }
  if (!dec.ok()) {
    return InvalidArgument("malformed paxos message");
  }
  return reply;
}

Bytes PaxosPeer::HandlePrepare(Decoder& dec) {
  uint64_t index = dec.GetU64();
  uint64_t ballot = dec.GetU64();
  Encoder enc;
  std::lock_guard<std::mutex> guard(durable_->mu);
  PaxosInstanceState& inst = durable_->instances[index];
  if (inst.chosen) {
    // Shortcut: tell the proposer the value is already decided.
    enc.PutU8(2);
    enc.PutBytes(inst.chosen_value);
    return enc.Take();
  }
  if (ballot > inst.promised_ballot) {
    inst.promised_ballot = ballot;
    enc.PutU8(1);  // promise
    enc.PutU64(inst.accepted_ballot);
    enc.PutBytes(inst.accepted_value);
  } else {
    enc.PutU8(0);  // nack
    enc.PutU64(inst.promised_ballot);
  }
  return enc.Take();
}

Bytes PaxosPeer::HandleAccept(Decoder& dec) {
  uint64_t index = dec.GetU64();
  uint64_t ballot = dec.GetU64();
  Bytes value = dec.GetBytes();
  Encoder enc;
  std::lock_guard<std::mutex> guard(durable_->mu);
  PaxosInstanceState& inst = durable_->instances[index];
  if (inst.chosen) {
    enc.PutU8(inst.chosen_value == value ? 1 : 0);
    return enc.Take();
  }
  if (ballot >= inst.promised_ballot) {
    inst.promised_ballot = ballot;
    inst.accepted_ballot = ballot;
    inst.accepted_value = value;
    enc.PutU8(1);  // accepted
  } else {
    enc.PutU8(0);  // nack
  }
  return enc.Take();
}

Bytes PaxosPeer::HandleLearn(Decoder& dec) {
  uint64_t index = dec.GetU64();
  Bytes value = dec.GetBytes();
  MarkChosen(index, value);
  ApplyReady();
  return Bytes{};
}

Bytes PaxosPeer::HandleGetChosen(Decoder& dec) {
  uint64_t from_index = dec.GetU64();
  Encoder enc;
  std::lock_guard<std::mutex> guard(durable_->mu);
  uint32_t count = 0;
  for (const auto& [idx, inst] : durable_->instances) {
    if (idx >= from_index && inst.chosen) {
      ++count;
    }
  }
  enc.PutU32(count);
  for (const auto& [idx, inst] : durable_->instances) {
    if (idx >= from_index && inst.chosen) {
      enc.PutU64(idx);
      enc.PutBytes(inst.chosen_value);
    }
  }
  return enc.Take();
}

void PaxosPeer::MarkChosen(uint64_t index, const Bytes& value) {
  std::lock_guard<std::mutex> guard(durable_->mu);
  PaxosInstanceState& inst = durable_->instances[index];
  if (inst.chosen) {
    FGP_CHECK(inst.chosen_value == value) << "Paxos safety violation at instance " << index;
    return;
  }
  inst.chosen = true;
  inst.chosen_value = value;
}

void PaxosPeer::ApplyReady() {
  // Apply contiguous chosen commands in order. apply_mu_ serializes appliers;
  // the durable mutex is only held while copying the next value out.
  std::lock_guard<std::mutex> apply_guard(apply_mu_);
  for (;;) {
    Bytes value;
    {
      std::lock_guard<std::mutex> guard(durable_->mu);
      auto it = durable_->instances.find(apply_index_);
      if (it == durable_->instances.end() || !it->second.chosen) {
        return;
      }
      value = it->second.chosen_value;
    }
    Decoder envelope(value);
    NodeId proposer = envelope.GetU32();
    uint64_t seq = envelope.GetU64();
    FGP_CHECK(envelope.ok()) << "Paxos value without envelope at instance " << apply_index_;
    ApplyResult result =
        on_apply_(apply_index_, Bytes(value.begin() + kEnvelopeBytes, value.end()));
    if (proposer == self_) {
      auto it = results_.find(seq);
      if (it != results_.end()) {
        it->second = std::move(result);
      }
    }
    ++apply_index_;
  }
}

uint64_t PaxosPeer::applied_up_to() const {
  std::lock_guard<std::mutex> guard(apply_mu_);
  return apply_index_;
}

void PaxosPeer::CatchUp() {
  uint64_t from;
  {
    std::lock_guard<std::mutex> guard(apply_mu_);
    from = apply_index_;
  }
  Encoder req;
  req.PutU64(from);
  for (NodeId peer : members_) {
    if (peer == self_) {
      continue;
    }
    StatusOr<Bytes> reply = CallPeer(peer, kGetChosen, req.buffer());
    if (!reply.ok()) {
      continue;
    }
    Decoder dec(reply.value());
    uint32_t count = dec.GetU32();
    for (uint32_t i = 0; i < count && dec.ok(); ++i) {
      uint64_t idx = dec.GetU64();
      Bytes value = dec.GetBytes();
      MarkChosen(idx, value);
    }
  }
  ApplyReady();
}

PaxosPeer::ApplyResult PaxosPeer::Propose(const Bytes& command) {
  uint64_t seq;
  {
    std::lock_guard<std::mutex> guard(apply_mu_);
    seq = next_seq_++;
    results_.emplace(seq, Internal("paxos: chosen command not applied"));
  }
  Status decided = Decide(Envelope(self_, seq, command));
  // Every slot up to the one decided is chosen on this peer; applying them
  // leaves this command's result in results_.
  ApplyReady();
  std::lock_guard<std::mutex> guard(apply_mu_);
  auto it = results_.find(seq);
  ApplyResult result = decided.ok() ? std::move(it->second) : ApplyResult(decided);
  results_.erase(it);
  return result;
}

Status PaxosPeer::Decide(const Bytes& value) {
  Rng backoff_rng(0xB0FF + self_);
  constexpr int kMaxAttempts = 64;
  // Slots where this call offered its value: a competitor may adopt it there
  // and get it chosen, and proposing it again later would apply it twice.
  std::vector<uint64_t> offered;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    CatchUp();
    // Pick the first locally-unchosen instance.
    uint64_t index;
    {
      std::lock_guard<std::mutex> guard(durable_->mu);
      for (uint64_t k : offered) {
        auto it = durable_->instances.find(k);
        if (it != durable_->instances.end() && it->second.chosen &&
            it->second.chosen_value == value) {
          return OkStatus();
        }
      }
      index = 0;
      while (true) {
        auto it = durable_->instances.find(index);
        if (it == durable_->instances.end() || !it->second.chosen) {
          break;
        }
        ++index;
      }
    }
    uint64_t ballot;
    {
      std::lock_guard<std::mutex> guard(ballot_mu_);
      ballot = (++round_ << 16) | self_;
    }

    // Phase 1: prepare.
    Encoder prep;
    prep.PutU64(index);
    prep.PutU64(ballot);
    size_t promises = 0;
    uint64_t best_accepted_ballot = 0;
    Bytes adopted = value;
    bool already_chosen = false;
    Bytes chosen_value;
    for (NodeId peer : members_) {
      StatusOr<Bytes> reply = CallPeer(peer, kPrepare, prep.buffer());
      if (!reply.ok()) {
        continue;
      }
      Decoder dec(reply.value());
      uint8_t kind = dec.GetU8();
      if (kind == 2) {
        already_chosen = true;
        chosen_value = dec.GetBytes();
        break;
      }
      if (kind == 1) {
        ++promises;
        uint64_t acc_ballot = dec.GetU64();
        Bytes acc_value = dec.GetBytes();
        if (acc_ballot > best_accepted_ballot) {
          best_accepted_ballot = acc_ballot;
          adopted = acc_value;
        }
      }
    }
    if (already_chosen) {
      MarkChosen(index, chosen_value);
      for (NodeId peer : members_) {
        if (peer != self_) {
          Encoder learn;
          learn.PutU64(index);
          learn.PutBytes(chosen_value);
          (void)CallPeer(peer, kLearn, learn.buffer());
        }
      }
      ApplyReady();
      if (chosen_value == value) {
        return OkStatus();
      }
      continue;  // someone else's value won this slot; try the next one
    }
    if (promises < Majority()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200 + backoff_rng.Below(800)));
      continue;
    }

    // Phase 2: accept.
    if (adopted == value) {
      offered.push_back(index);
    }
    Encoder acc;
    acc.PutU64(index);
    acc.PutU64(ballot);
    acc.PutBytes(adopted);
    size_t accepts = 0;
    for (NodeId peer : members_) {
      StatusOr<Bytes> reply = CallPeer(peer, kAccept, acc.buffer());
      if (!reply.ok()) {
        continue;
      }
      Decoder dec(reply.value());
      if (dec.GetU8() == 1) {
        ++accepts;
      }
    }
    if (accepts < Majority()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200 + backoff_rng.Below(800)));
      continue;
    }

    // Chosen. Teach everyone.
    MarkChosen(index, adopted);
    Encoder learn;
    learn.PutU64(index);
    learn.PutBytes(adopted);
    for (NodeId peer : members_) {
      if (peer != self_) {
        (void)CallPeer(peer, kLearn, learn.buffer());
      }
    }
    ApplyReady();
    if (adopted == value) {
      return OkStatus();
    }
    // We completed someone else's proposal; retry ours at the next slot.
  }
  return Unavailable("paxos: could not achieve consensus (no majority reachable?)");
}

}  // namespace frangipani
