// The background half of freeing a large block (§3). An op that frees a
// large block leaves its allocation bit set and logs a pending-decommit
// extent in the segment block; it then queues the segment here. One thread
// per mount visits queued segments through a callback that flushes the log
// through the marker's record, decommits the extents from Petal and clears
// bit and extent in a second logged update (FrangipaniFs::FinishDecommits).
//
// The callback holds the segment lock only to read and to clear the
// markers, not across the flush or the RPCs. Two rules keep a freed block
// from being reused while a stale decommit could still land on it:
//  - a revoke of a segment's lock waits while this mount's decommit RPCs
//    for that segment may still be sent (OnSegmentRevoked): from
//    BeginSending, which the callback calls while it still holds the lock
//    it read the markers under, to EndSending, and
//  - a visit whose segment lock was revoked after it read the markers does
//    not clear them as read (another server may have finished and reused
//    the block in between); it reads, decommits and clears them again
//    holding the lock throughout.
#ifndef SRC_FS_DECOMMIT_WORKER_H_
#define SRC_FS_DECOMMIT_WORKER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <thread>

namespace frangipani {

class DecommitWorker {
 public:
  // `finish(seg, own)` finishes the pending decommits of segment `seg`;
  // `own` is true if a free of this mount queued the visit, false if only
  // an allocation that saw another's marker did. `node` tags the worker's
  // wait spans in the flight recorder.
  DecommitWorker(std::function<void(uint32_t seg, bool own)> finish, uint32_t node);
  ~DecommitWorker();  // Stop()

  DecommitWorker(const DecommitWorker&) = delete;
  DecommitWorker& operator=(const DecommitWorker&) = delete;

  // Queues a visit of `seg`; `own` as passed to `finish`.
  void Add(uint32_t seg, bool own);

  // Waits until every visit queued before the call has run. Returns at once
  // once the worker is stopped.
  void Drain();
  // Ends the thread after the visit in progress; later visits are dropped
  // (their markers stay on disk).
  void Stop();
  // While held, the worker starts no visit (tests use this to leave a
  // marker pending); Drain keeps waiting.
  void Hold(bool hold);

  // ---- called by `finish` on the worker thread ----
  // Bracket the flush and the Petal RPCs of the current visit. BeginSending
  // must be called under the segment lock the markers were read under, so
  // that no revoke can take the lock between the read and the bracket.
  void BeginSending();
  void EndSending();
  // True if the current segment's lock was revoked since the visit began.
  bool Revoked();

  // Revoke callback for segment `seg`'s lock: marks a visit of `seg`
  // revoked, and waits while its RPCs are in flight.
  void OnSegmentRevoked(uint32_t seg);

 private:
  void Run();

  std::function<void(uint32_t, bool)> finish_;
  uint32_t node_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::map<uint32_t, bool> queued_;  // segment -> own
  uint64_t added_ = 0;  // visits queued so far
  uint64_t done_ = 0;   // visits queued before the last finished batch
  bool hold_ = false;
  bool stop_ = false;
  static constexpr uint32_t kNoSeg = ~0u;
  uint32_t active_ = kNoSeg;  // segment being visited
  bool sending_ = false;
  bool revoked_ = false;
  std::thread thread_;
};

}  // namespace frangipani

#endif  // SRC_FS_DECOMMIT_WORKER_H_
