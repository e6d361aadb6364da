// Interactive mini-shell over a Frangipani cluster: explore the file system
// the way a user would. Commands: ls, mkdir, touch, write, cat, rm, rmdir,
// mv, ln, stat, crash, restart, sync, fsck, machines, use N, help, quit.
//
//   $ ./examples/fsshell
//   frangipani[0]:/$ mkdir demo
//   frangipani[0]:/$ write demo/hello Hello, world!
//   frangipani[0]:/$ use 1
//   frangipani[1]:/$ cat demo/hello
#include <cstdio>
#include <iostream>
#include <sstream>
#include <thread>

#include "src/fs/fsck.h"
#include "src/server/cluster.h"

using namespace frangipani;

namespace {

std::string Normalize(const std::string& cwd, const std::string& arg) {
  if (arg.empty()) {
    return cwd;
  }
  if (arg.front() == '/') {
    return arg;
  }
  return cwd == "/" ? "/" + arg : cwd + "/" + arg;
}

void Help() {
  std::printf(
      "commands:\n"
      "  ls [path]           list directory\n"
      "  mkdir <path>        create directory\n"
      "  touch <path>        create empty file\n"
      "  write <path> <txt>  create/overwrite file with text\n"
      "  append <path> <txt> append text\n"
      "  cat <path>          print file\n"
      "  rm <path> | rmdir <path> | mv <a> <b> | ln -s <tgt> <lnk>\n"
      "  stat <path>         attributes\n"
      "  machines            list Frangipani servers\n"
      "  use <n>             switch to server n\n"
      "  crash <n> / restart <n>  kill / remount server n\n"
      "  sync | fsck | help | quit\n");
}

}  // namespace

int main() {
  ClusterOptions options;
  options.petal_servers = 3;
  options.lease_duration = Duration(2'000'000);
  Cluster cluster(options);
  if (!cluster.Start().ok()) {
    return 1;
  }
  for (int i = 0; i < 2; ++i) {
    if (!cluster.AddFrangipani().ok()) {
      return 1;
    }
  }
  std::printf("Frangipani shell: 3 Petal servers, 3 lock servers, 2 machines. 'help' for "
              "commands.\n");

  size_t current = 0;
  std::string cwd = "/";
  std::string line;
  while (true) {
    std::printf("frangipani[%zu]:%s$ ", current, cwd.c_str());
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) {
      break;
    }
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    FrangipaniFs* fs = cluster.fs(current);
    if (cmd.empty()) {
      continue;
    }
    if (cmd == "quit" || cmd == "exit") {
      break;
    } else if (cmd == "help") {
      Help();
    } else if (cmd == "machines") {
      for (size_t i = 0; i < cluster.frangipani_count(); ++i) {
        bool up = cluster.net()->IsNodeUp(cluster.frangipani_node(i));
        std::printf("  machine %zu: %s%s\n", i, up ? "up" : "down",
                    i == current ? "  (current)" : "");
      }
    } else if (cmd == "use") {
      size_t n;
      in >> n;
      if (n < cluster.frangipani_count()) {
        current = n;
      }
    } else if (cmd == "crash") {
      size_t n;
      in >> n;
      Status st = cluster.CrashFrangipani(n);
      std::printf("%s\n", st.ToString().c_str());
    } else if (cmd == "restart") {
      size_t n;
      in >> n;
      Status st = cluster.RestartFrangipani(n);
      std::printf("%s\n", st.ToString().c_str());
    } else if (cmd == "ls") {
      std::string arg;
      in >> arg;
      auto entries = fs->Readdir(Normalize(cwd, arg));
      if (!entries.ok()) {
        std::printf("ls: %s\n", entries.status().ToString().c_str());
        continue;
      }
      for (const DirEntry& e : *entries) {
        const char* tag = e.type == FileType::kDirectory  ? "d"
                          : e.type == FileType::kSymlink ? "l"
                                                         : "-";
        std::printf("  %s %8llu  %s\n", tag,
                    static_cast<unsigned long long>(fs->StatIno(e.ino).ok()
                                                        ? fs->StatIno(e.ino)->size
                                                        : 0),
                    e.name.c_str());
      }
    } else if (cmd == "cd") {
      std::string arg;
      in >> arg;
      std::string path = Normalize(cwd, arg);
      auto entries = fs->Readdir(path);
      if (entries.ok()) {
        cwd = path.empty() ? "/" : path;
      } else {
        std::printf("cd: %s\n", entries.status().ToString().c_str());
      }
    } else if (cmd == "mkdir") {
      std::string arg;
      in >> arg;
      Status st = fs->Mkdir(Normalize(cwd, arg));
      if (!st.ok()) {
        std::printf("mkdir: %s\n", st.ToString().c_str());
      }
    } else if (cmd == "touch") {
      std::string arg;
      in >> arg;
      auto st = fs->Create(Normalize(cwd, arg));
      if (!st.ok()) {
        std::printf("touch: %s\n", st.status().ToString().c_str());
      }
    } else if (cmd == "write" || cmd == "append") {
      std::string arg;
      in >> arg;
      std::string text;
      std::getline(in, text);
      if (!text.empty() && text.front() == ' ') {
        text.erase(0, 1);
      }
      text += "\n";
      std::string path = Normalize(cwd, arg);
      auto ino = fs->Lookup(path);
      if (!ino.ok()) {
        ino = fs->Create(path);
      }
      if (!ino.ok()) {
        std::printf("write: %s\n", ino.status().ToString().c_str());
        continue;
      }
      uint64_t off = 0;
      if (cmd == "append") {
        auto attr = fs->StatIno(*ino);
        off = attr.ok() ? attr->size : 0;
      } else if (Status st = fs->Truncate(*ino, 0); !st.ok()) {
        std::printf("write: %s\n", st.ToString().c_str());
        continue;
      }
      Status st = fs->Write(*ino, off, Bytes(text.begin(), text.end()));
      if (!st.ok()) {
        std::printf("write: %s\n", st.ToString().c_str());
      }
    } else if (cmd == "cat") {
      std::string arg;
      in >> arg;
      auto ino = fs->Lookup(Normalize(cwd, arg));
      if (!ino.ok()) {
        std::printf("cat: %s\n", ino.status().ToString().c_str());
        continue;
      }
      Bytes out;
      auto n = fs->Read(*ino, 0, 1 << 20, &out);
      if (!n.ok()) {
        std::printf("cat: %s\n", n.status().ToString().c_str());
        continue;
      }
      fwrite(out.data(), 1, out.size(), stdout);
    } else if (cmd == "rm") {
      std::string arg;
      in >> arg;
      Status st = fs->Unlink(Normalize(cwd, arg));
      if (!st.ok()) {
        std::printf("rm: %s\n", st.ToString().c_str());
      }
    } else if (cmd == "rmdir") {
      std::string arg;
      in >> arg;
      Status st = fs->Rmdir(Normalize(cwd, arg));
      if (!st.ok()) {
        std::printf("rmdir: %s\n", st.ToString().c_str());
      }
    } else if (cmd == "mv") {
      std::string a, b;
      in >> a >> b;
      Status st = fs->Rename(Normalize(cwd, a), Normalize(cwd, b));
      if (!st.ok()) {
        std::printf("mv: %s\n", st.ToString().c_str());
      }
    } else if (cmd == "ln") {
      std::string flag, target, link;
      in >> flag >> target >> link;
      Status st = fs->Symlink(target, Normalize(cwd, link));
      if (!st.ok()) {
        std::printf("ln: %s\n", st.ToString().c_str());
      }
    } else if (cmd == "stat") {
      std::string arg;
      in >> arg;
      auto attr = fs->Stat(Normalize(cwd, arg));
      if (!attr.ok()) {
        std::printf("stat: %s\n", attr.status().ToString().c_str());
        continue;
      }
      const char* type = attr->type == FileType::kDirectory  ? "directory"
                         : attr->type == FileType::kSymlink ? "symlink"
                                                            : "file";
      std::printf("  ino=%llu type=%s size=%llu nlink=%u\n",
                  static_cast<unsigned long long>(attr->ino), type,
                  static_cast<unsigned long long>(attr->size), attr->nlink);
    } else if (cmd == "sync") {
      Status st = fs->SyncAll();
      std::printf("%s\n", st.ToString().c_str());
    } else if (cmd == "fsck") {
      for (size_t i = 0; i < cluster.frangipani_count(); ++i) {
        if (!cluster.net()->IsNodeUp(cluster.frangipani_node(i))) {
          continue;
        }
        if (Status st = cluster.fs(i)->SyncAll(); !st.ok()) {
          std::printf("fsck: sync of machine %zu failed: %s\n", i, st.ToString().c_str());
        }
      }
      PetalDevice device(cluster.admin_petal(), cluster.vdisk());
      FsckReport report = RunFsck(&device, cluster.geometry());
      std::printf("%s\n", report.Summary().c_str());
    } else {
      std::printf("unknown command '%s' (try 'help')\n", cmd.c_str());
    }
  }
  return 0;
}
