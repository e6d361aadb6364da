#include "src/paxos/paxos.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/base/logging.h"
#include "src/base/rng.h"

namespace frangipani {

PaxosPeer::PaxosPeer(Network* net, NodeId self, std::vector<NodeId> members,
                     PaxosDurableState* durable,
                     std::function<void(uint64_t, const Bytes&)> on_apply)
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
    if (on_apply_) {
      on_apply_(apply_index_, value);
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

StatusOr<uint64_t> PaxosPeer::Propose(const Bytes& command) {
  Rng backoff_rng(0xB0FF + self_);
  constexpr int kMaxAttempts = 64;
  // Slots where this call offered its command: a competitor may adopt it there
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
            it->second.chosen_value == command) {
          return k;
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
    Bytes adopted = command;
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
      if (chosen_value == command) {
        return index;
      }
      continue;  // someone else's value won this slot; try the next one
    }
    if (promises < Majority()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200 + backoff_rng.Below(800)));
      continue;
    }

    // Phase 2: accept.
    if (adopted == command) {
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
    if (adopted == command) {
      return index;
    }
    // We completed someone else's proposal; retry ours at the next slot.
  }
  return Unavailable("paxos: could not achieve consensus (no majority reachable?)");
}

}  // namespace frangipani
