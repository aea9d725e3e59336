// FdLineReader (service/daemon.h): lines round-trip byte-exactly through a
// pipe however the writer splits them, and a long line or a long run of
// pipelined short lines costs linear time. Before the reader kept a resume
// offset, a 4 MiB line rescanned its buffer from the start after every
// 4 KiB read and each consumed line shifted the whole buffer.
#include "service/daemon.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace commsched::svc {
namespace {

/// Writes `data` into a pipe in chunks of 1..max_chunk bytes from another
/// thread and returns every line the reader yields.
std::vector<std::string> RoundTrip(const std::string& data, std::size_t max_chunk,
                                   std::uint64_t seed) {
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  std::thread writer([&] {
    Rng rng(seed);
    std::size_t sent = 0;
    while (sent < data.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(data.size() - sent, 1 + rng.NextIndex(max_chunk));
      const ssize_t wrote = ::write(fds[1], data.data() + sent, chunk);
      if (wrote <= 0) break;
      sent += static_cast<std::size_t>(wrote);
    }
    ::close(fds[1]);
  });
  std::vector<std::string> lines;
  FdLineReader reader(fds[0]);
  std::string line;
  while (reader.NextLine(line)) lines.push_back(line);
  writer.join();
  ::close(fds[0]);
  return lines;
}

TEST(ServiceLineReader, LongLineSplitAcrossManyReadsRoundTrips) {
  std::string long_line(4u << 20, 'x');
  Rng rng(7);
  for (char& c : long_line) c = static_cast<char>('a' + rng.NextIndex(26));
  const std::string data = "first\n" + long_line + "\nlast";
  const std::vector<std::string> lines = RoundTrip(data, 6000, 1);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "first");
  EXPECT_TRUE(lines[1] == long_line) << "the 4 MiB line changed in transit";
  EXPECT_EQ(lines[2], "last");  // unterminated tail at EOF
}

TEST(ServiceLineReader, TenThousandPipelinedLinesRoundTrip) {
  std::vector<std::string> expected;
  std::string data;
  Rng rng(11);
  for (std::size_t k = 0; k < 10000; ++k) {
    std::string line = "{\"id\":" + std::to_string(k) + ",\"op\":\"ping\"}";
    line.append(rng.NextIndex(40), ' ');
    if (k % 1000 == 0) line.clear();  // empty lines survive too
    data += line;
    data += '\n';
    expected.push_back(std::move(line));
  }
  EXPECT_EQ(RoundTrip(data, 9000, 2), expected);
  EXPECT_EQ(RoundTrip(data, 7, 3), expected);  // tiny writes: many partial lines
}

TEST(ServiceLineReader, EmptyInputYieldsNoLines) {
  EXPECT_TRUE(RoundTrip("", 16, 4).empty());
  EXPECT_EQ(RoundTrip("\n", 16, 5), std::vector<std::string>{""});
}

}  // namespace
}  // namespace commsched::svc
