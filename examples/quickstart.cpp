// Quickstart: bring up a small Frangipani installation (3 Petal servers, a
// distributed lock service, 2 Frangipani server machines), create some files
// on one machine, and read them from the other.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "examples/check.h"
#include "src/server/cluster.h"

using namespace frangipani;

int main() {
  // A whole cluster in one process: Petal storage servers, the lock
  // service, and the shared virtual disk, formatted with mkfs.
  ClusterOptions options;
  options.petal_servers = 3;
  options.lock_servers = 3;
  Cluster cluster(options);
  Status st = cluster.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "cluster start failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // Add two Frangipani server machines. Each needs to know only the virtual
  // disk and where the lock service lives (§7).
  auto machine_a = cluster.AddFrangipani();
  auto machine_b = cluster.AddFrangipani();
  if (!machine_a.ok() || !machine_b.ok()) {
    std::fprintf(stderr, "mount failed\n");
    return 1;
  }
  FrangipaniFs* fs_a = (*machine_a)->fs();
  FrangipaniFs* fs_b = (*machine_b)->fs();

  // Machine A builds a small project tree.
  CHECK_OK(fs_a->Mkdir("/projects"));
  CHECK_OK(fs_a->Mkdir("/projects/frangipani"));
  auto readme = fs_a->Create("/projects/frangipani/README");
  if (!readme.ok()) {
    std::fprintf(stderr, "create failed: %s\n", readme.status().ToString().c_str());
    return 1;
  }
  std::string text =
      "Frangipani: a scalable distributed file system.\n"
      "All machines see one coherent namespace backed by a shared Petal "
      "virtual disk.\n";
  Bytes content(text.begin(), text.end());
  CHECK_OK(fs_a->Write(*readme, 0, content));
  CHECK_OK(fs_a->Symlink("/projects/frangipani/README", "/README-link"));

  // Machine B sees everything immediately — coherence is driven by the
  // distributed lock service, no server-to-server communication needed.
  auto entries = fs_b->Readdir("/projects/frangipani");
  CHECK_OK(entries);
  std::printf("machine B sees /projects/frangipani:\n");
  for (const DirEntry& e : *entries) {
    auto attr = fs_b->Stat("/projects/frangipani/" + e.name);
    CHECK_OK(attr);
    std::printf("  %-10s  ino=%llu  %llu bytes\n", e.name.c_str(),
                static_cast<unsigned long long>(attr->ino),
                static_cast<unsigned long long>(attr->size));
  }

  auto ino = fs_b->Lookup("/README-link");  // follows the symlink
  Bytes back;
  CHECK_OK(ino);
  CHECK_OK(fs_b->Read(*ino, 0, 4096, &back));
  std::printf("\nmachine B reads through /README-link:\n%.*s\n",
              static_cast<int>(back.size()), back.data());

  // Writes from B are visible to A just as immediately.
  CHECK_OK(fs_b->Write(*ino, back.size(), Bytes{'B', ' ', 'w', 'a', 's', ' ', 'h', 'e', 'r', 'e',
                                             '\n'}));
  auto attr = fs_a->Stat("/projects/frangipani/README");
  CHECK_OK(attr);
  std::printf("machine A now sees %llu bytes\n",
              static_cast<unsigned long long>(attr->size));

  std::printf("\nquickstart OK\n");
  return 0;
}
