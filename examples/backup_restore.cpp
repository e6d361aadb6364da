// Online backup and restore (§8): take a barrier-consistent Petal snapshot
// while the file system is live, mount it read-only with no recovery, and
// separately demonstrate a crash-consistent snapshot restored by running
// recovery on every log.
//
//   $ ./examples/backup_restore
#include <cstdio>

#include "examples/check.h"
#include "src/fs/backup.h"
#include "src/fs/fsck.h"
#include "src/server/cluster.h"

using namespace frangipani;

int main() {
  ClusterOptions options;
  options.petal_servers = 3;
  Cluster cluster(options);
  if (!cluster.Start().ok()) {
    return 1;
  }
  auto a = cluster.AddFrangipani();
  auto b = cluster.AddFrangipani();
  if (!a.ok() || !b.ok()) {
    return 1;
  }

  // Live workload on two machines.
  CHECK_OK(cluster.fs(0)->Mkdir("/payroll"));
  auto ledger = cluster.fs(0)->Create("/payroll/ledger");
  CHECK_OK(ledger);
  std::string v1 = "ledger v1: all accounts balanced\n";
  CHECK_OK(cluster.fs(0)->Write(*ledger, 0, Bytes(v1.begin(), v1.end())));
  CHECK_OK(cluster.fs(1)->Create("/payroll/notes"));

  // The backup process is an ordinary lock-service client: it takes the
  // global barrier lock exclusively, which forces every server to block new
  // modifications and clean its cache, snapshots the virtual disk, and
  // releases the barrier. Normal operation resumes immediately.
  NodeId backup_node = cluster.net()->AddNode("backup-agent");
  LockClerk backup_clerk(cluster.net(), backup_node, cluster.lock_nodes(), cluster.clock(),
                         LockClerk::Callbacks{});
  if (!backup_clerk.Open("fs").ok()) {
    return 1;
  }
  ClerkLockProvider backup_provider(&backup_clerk);
  PetalClient backup_petal(cluster.net(), backup_node, cluster.petal_nodes());
  CHECK_OK(backup_petal.RefreshMap());

  auto snap = SnapshotWithBarrier(&backup_provider, &backup_petal, cluster.vdisk());
  if (!snap.ok()) {
    std::fprintf(stderr, "snapshot failed: %s\n", snap.status().ToString().c_str());
    return 1;
  }
  std::printf("barrier snapshot taken: vdisk %u\n", *snap);
  backup_clerk.Close();

  // The live file system keeps changing...
  std::string v2 = "ledger v2: OOPS accidentally overwritten!!\n";
  CHECK_OK(cluster.fs(1)->Write(*ledger, 0, Bytes(v2.begin(), v2.end())));
  CHECK_OK(cluster.fs(1)->Truncate(*ledger, v2.size()));
  CHECK_OK(cluster.fs(0)->Unlink("/payroll/notes"));

  // ...but the snapshot is frozen, clean (no recovery needed), and can be
  // kept online for quick access to accidentally deleted files (§1).
  PetalDevice snap_device(cluster.admin_petal(), *snap);
  FsckReport report = RunFsck(&snap_device, cluster.geometry());
  std::printf("snapshot fsck (no recovery was run): %s\n", report.Summary().c_str());

  LocalLocks snap_locks;
  FsOptions ro;
  ro.read_only = true;
  FrangipaniFs snap_fs(&snap_device, &snap_locks, SystemClock::Get(), ro);
  CHECK_OK(snap_fs.Mount());
  auto snap_ledger = snap_fs.Lookup("/payroll/ledger");
  CHECK_OK(snap_ledger);
  Bytes back;
  CHECK_OK(snap_fs.Read(*snap_ledger, 0, 4096, &back));
  std::printf("from the online backup: %.*s", static_cast<int>(back.size()), back.data());
  auto notes = snap_fs.Stat("/payroll/notes");
  std::printf("deleted file still in backup: %s\n", notes.ok() ? "yes" : "no");
  CHECK_OK(snap_fs.Unmount());

  // Crash-consistent variant: snapshot without the barrier, then restore by
  // cloning and running recovery on each log — the same procedure as
  // recovering from a system-wide power failure (§8).
  auto crash_snap = SnapshotCrashConsistent(cluster.admin_petal(), cluster.vdisk());
  auto restored = RestoreSnapshot(cluster.admin_petal(), *crash_snap, cluster.geometry());
  if (!restored.ok()) {
    return 1;
  }
  PetalDevice restored_device(cluster.admin_petal(), *restored);
  report = RunFsck(&restored_device, cluster.geometry());
  std::printf("restored crash-consistent snapshot fsck: %s\n", report.Summary().c_str());
  return report.ok ? 0 : 1;
}
