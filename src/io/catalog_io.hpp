// Catalog serialization: whitespace/comma-separated text (x y z [w]) for
// interoperability with survey catalogs, and a compact binary format for
// fast reload of large mocks.
#pragma once

#include <string>

#include "sim/catalog.hpp"

namespace galactos::io {

// Text: one galaxy per line, "x y z w" (w optional, defaults to 1),
// separated by whitespace and/or commas. Blank lines and lines whose first
// token starts with '#' are skipped. Any other row must hold 3 or 4 finite
// numbers with w >= 0; the reader throws std::logic_error naming
// "path:line" otherwise.
void write_catalog_text(const sim::Catalog& c, const std::string& path);
sim::Catalog read_catalog_text(const std::string& path);

// Binary: magic "GLXCAT01", uint64 count, then x[], y[], z[], w[] as f64.
// The reader checks the count against the file size before allocating.
void write_catalog_binary(const sim::Catalog& c, const std::string& path);
sim::Catalog read_catalog_binary(const std::string& path);

}  // namespace galactos::io
