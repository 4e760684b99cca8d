// Manifest: the tiny metadata record that makes a file-backed archive
// reopenable — which code, which layout, element size, and how much data
// has been committed. Stored as key=value lines in <dir>/MANIFEST.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "layout/layout.h"
#include "store/extent.h"

namespace ecfrm::store {

/// A named object stored inside the archive's logical byte stream.
struct ObjectRecord {
    std::string name;  // no ':' or newline characters
    std::int64_t offset = 0;
    std::int64_t bytes = 0;

    friend bool operator==(const ObjectRecord&, const ObjectRecord&) = default;
};

struct Manifest {
    std::string code_spec;                                    // e.g. "rs:6,3"
    layout::LayoutKind kind = layout::LayoutKind::ecfrm;
    std::int64_t element_bytes = 0;
    std::int64_t logical_bytes = 0;
    std::int64_t stripes = 0;
    std::vector<Extent> extents;        // committed user-byte runs, logical order
    std::vector<ObjectRecord> objects;  // named objects, insertion order

    /// Look up an object by name; nullptr when absent.
    const ObjectRecord* find_object(const std::string& name) const;

    /// Write to <dir>/MANIFEST (atomically via rename).
    Status save(const std::string& dir) const;

    /// Load from <dir>/MANIFEST.
    static Result<Manifest> load(const std::string& dir);
};

/// Parse a layout-kind name ("standard" | "rotated" | "ecfrm").
Result<layout::LayoutKind> parse_layout_kind(const std::string& name);

}  // namespace ecfrm::store
