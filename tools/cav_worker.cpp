// cav_worker: the fleet process behind dist/campaign_driver.h.  Never run
// by hand — the driver fork+execs it with two inherited pipe fds as argv
// and speaks dist/wire.h over them:
//
//   cav_worker <read_fd> <write_fd>
//
// Everything interesting lives in dist::worker_main; this file only
// parses the fds.
#include <cstdio>
#include <cstdlib>

#include "dist/worker.h"

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr,
                 "cav_worker is an internal helper spawned by the campaign driver.\n"
                 "usage: cav_worker <read_fd> <write_fd>\n");
    return 2;
  }
  char* end = nullptr;
  const long in_fd = std::strtol(argv[1], &end, 10);
  if (end == argv[1] || *end != '\0' || in_fd < 0) return 2;
  const long out_fd = std::strtol(argv[2], &end, 10);
  if (end == argv[2] || *end != '\0' || out_fd < 0) return 2;
  return cav::dist::worker_main(static_cast<int>(in_fd), static_cast<int>(out_fd));
}
