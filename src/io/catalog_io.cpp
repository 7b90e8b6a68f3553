#include "io/catalog_io.hpp"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/check.hpp"

namespace galactos::io {

namespace {
constexpr char kMagic[8] = {'G', 'L', 'X', 'C', 'A', 'T', '0', '1'};
}

void write_catalog_text(const sim::Catalog& c, const std::string& path) {
  std::ofstream f(path);
  GLX_CHECK_MSG(f.good(), "cannot open " << path << " for writing");
  f << "# x y z w\n";
  f.precision(17);
  for (std::size_t i = 0; i < c.size(); ++i)
    f << c.x[i] << ' ' << c.y[i] << ' ' << c.z[i] << ' ' << c.w[i] << '\n';
  GLX_CHECK_MSG(f.good(), "write failed: " << path);
}

sim::Catalog read_catalog_text(const std::string& path) {
  std::ifstream f(path);
  GLX_CHECK_MSG(f.good(), "cannot open " << path);
  sim::Catalog c;
  std::string line;
  for (std::size_t lineno = 1; std::getline(f, line); ++lineno) {
    for (char& ch : line)
      if (ch == ',') ch = ' ';
    std::istringstream is(line);
    std::string tok;
    double v[4] = {0, 0, 0, 1.0};  // weight defaults to 1
    int n = 0;
    while (is >> tok) {
      if (n == 0 && tok[0] == '#') break;  // comment line
      GLX_CHECK_MSG(n < 4, path << ':' << lineno << ": extra token '" << tok
                                << "' (expected x y z [w])");
      char* end = nullptr;
      v[n] = std::strtod(tok.c_str(), &end);
      GLX_CHECK_MSG(end == tok.c_str() + tok.size(),
                    path << ':' << lineno << ": cannot parse '" << tok
                         << "' as a number");
      GLX_CHECK_MSG(std::isfinite(v[n]), path << ':' << lineno
                                              << ": non-finite value '"
                                              << tok << "'");
      ++n;
    }
    if (n == 0) continue;  // blank or comment
    GLX_CHECK_MSG(n >= 3, path << ':' << lineno
                               << ": expected x y z [w], got " << n
                               << " value(s)");
    GLX_CHECK_MSG(v[3] >= 0.0, path << ':' << lineno << ": negative weight "
                                    << v[3]);
    c.push_back(v[0], v[1], v[2], v[3]);
  }
  return c;
}

void write_catalog_binary(const sim::Catalog& c, const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  GLX_CHECK_MSG(f.good(), "cannot open " << path << " for writing");
  f.write(kMagic, sizeof(kMagic));
  const std::uint64_t n = c.size();
  f.write(reinterpret_cast<const char*>(&n), sizeof(n));
  auto dump = [&](const std::vector<double>& v) {
    f.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(double)));
  };
  dump(c.x);
  dump(c.y);
  dump(c.z);
  dump(c.w);
  GLX_CHECK_MSG(f.good(), "write failed: " << path);
}

sim::Catalog read_catalog_binary(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  GLX_CHECK_MSG(f.good(), "cannot open " << path);
  char magic[8];
  f.read(magic, sizeof(magic));
  GLX_CHECK_MSG(f.good() && std::memcmp(magic, kMagic, 8) == 0,
                "bad magic in " << path);
  std::uint64_t n = 0;
  f.read(reinterpret_cast<char*>(&n), sizeof(n));
  GLX_CHECK_MSG(f.good(), "truncated catalog header: " << path);
  // The header count is untrusted: check it against the payload the file
  // actually holds before allocating anything.
  const std::streamoff header = f.tellg();
  f.seekg(0, std::ios::end);
  const std::uint64_t payload =
      static_cast<std::uint64_t>(f.tellg() - header);
  f.seekg(header);
  constexpr std::uint64_t kBytesPerGalaxy = 4 * sizeof(double);
  GLX_CHECK_MSG(n <= payload / kBytesPerGalaxy,
                "truncated catalog file: " << path << " claims " << n
                    << " galaxies but holds " << payload << " payload bytes");
  GLX_CHECK_MSG(payload == n * kBytesPerGalaxy,
                "trailing bytes in catalog file: " << path << " holds "
                    << payload << " payload bytes for " << n
                    << " galaxies");
  sim::Catalog c(n);
  auto load = [&](std::vector<double>& v) {
    f.read(reinterpret_cast<char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(double)));
  };
  load(c.x);
  load(c.y);
  load(c.z);
  load(c.w);
  GLX_CHECK_MSG(f.good(), "truncated catalog file: " << path);
  return c;
}

}  // namespace galactos::io
