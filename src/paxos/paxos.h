// Lamport's Paxos, as the paper uses it: "a small amount of global state
// information that does not change often is consistently replicated across
// all lock servers using Lamport's Paxos algorithm" (§6). Petal reuses the
// same implementation for its server membership, as in the original system.
//
// This is a multi-instance (command log) Paxos: each instance runs classic
// single-decree Paxos (prepare/promise, accept/accepted), chosen values are
// broadcast via learn messages, and peers apply chosen commands in log order
// through a callback. Each proposed command travels in an envelope naming its
// proposer and that proposer's sequence number, so two proposals of the same
// bytes are two log entries and each proposer gets back the result of
// applying its own. Acceptor state lives in an externally owned
// PaxosDurableState so a restarted server (same "disk") keeps its promises,
// preserving safety across crashes.
#ifndef SRC_PAXOS_PAXOS_H_
#define SRC_PAXOS_PAXOS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "src/base/serial.h"
#include "src/base/status.h"
#include "src/net/network.h"

namespace frangipani {

struct PaxosInstanceState {
  uint64_t promised_ballot = 0;
  uint64_t accepted_ballot = 0;
  Bytes accepted_value;
  bool chosen = false;
  Bytes chosen_value;
};

// The durable (per-"disk") part of an acceptor. Owned by the harness so it
// survives simulated process crashes.
struct PaxosDurableState {
  std::mutex mu;
  std::map<uint64_t, PaxosInstanceState> instances;
};

class PaxosPeer : public Service {
 public:
  // What applying one command yields: a small value (a slot, a vdisk id, an
  // index) or an error, handed back to the command's proposer.
  using ApplyResult = StatusOr<uint64_t>;

  // `on_apply` is invoked with (index, command) for every chosen command, in
  // strictly increasing index order, exactly once per peer lifetime.
  PaxosPeer(Network* net, NodeId self, std::vector<NodeId> members, PaxosDurableState* durable,
            std::function<ApplyResult(uint64_t, const Bytes&)> on_apply);

  // Proposes `command` for the next free log slot and returns once it has
  // been chosen and applied on this peer, with what `on_apply` returned for
  // it. Drives competing proposals to completion (a competitor's value may
  // be chosen first; we then try the next slot).
  ApplyResult Propose(const Bytes& command);

  // Pulls chosen commands this peer missed from its members.
  void CatchUp();

  uint64_t applied_up_to() const;

  // Service:
  StatusOr<Bytes> Handle(uint32_t method, const Bytes& request, NodeId from) override;

  static constexpr const char* kServiceName = "paxos";

 private:
  enum Method : uint32_t {
    kPrepare = 1,
    kAccept = 2,
    kLearn = 3,
    kGetChosen = 4,
  };

  struct PromiseReply {
    bool ok = false;
    uint64_t accepted_ballot = 0;
    Bytes accepted_value;
  };

  StatusOr<Bytes> CallPeer(NodeId peer, uint32_t method, const Bytes& request);

  // Gets `value` (an enveloped command) chosen at some log slot.
  Status Decide(const Bytes& value);

  Bytes HandlePrepare(Decoder& dec);
  Bytes HandleAccept(Decoder& dec);
  Bytes HandleLearn(Decoder& dec);
  Bytes HandleGetChosen(Decoder& dec);

  void MarkChosen(uint64_t index, const Bytes& value);
  // Applies all contiguous chosen commands; call without holding mu of state.
  void ApplyReady();

  size_t Majority() const { return members_.size() / 2 + 1; }

  Network* net_;
  NodeId self_;
  std::vector<NodeId> members_;
  PaxosDurableState* durable_;
  std::function<ApplyResult(uint64_t, const Bytes&)> on_apply_;

  mutable std::mutex apply_mu_;
  uint64_t apply_index_ = 0;  // next index to apply
  // This peer's proposals in flight, by sequence number: ApplyReady stores
  // each one's result here and its Propose takes it out.
  uint64_t next_seq_ = 1;
  std::map<uint64_t, ApplyResult> results_;

  std::mutex ballot_mu_;
  uint64_t round_ = 0;
};

}  // namespace frangipani

#endif  // SRC_PAXOS_PAXOS_H_
