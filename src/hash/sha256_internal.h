#pragma once

// The SHA-256 block compressors behind Sha256. Not part of the library's
// interface: tests include this to check each compressor against the other.

#include <cstddef>
#include <cstdint>

namespace mmlib::sha256_internal {

/// Runs the SHA-256 compression function over `count` consecutive 64-byte
/// blocks, updating `state` (a..h) in place.
using CompressFn = void (*)(uint32_t state[8], const uint8_t* blocks,
                            size_t count);

/// Plain C++ compressor; runs on every host and is the reference.
void CompressPortable(uint32_t state[8], const uint8_t* blocks, size_t count);

/// The compressor built on the x86 SHA extensions, or nullptr when the CPU
/// (CPUID leaf 7 EBX bit 29, plus SSSE3 and SSE4.1) or the target
/// architecture lacks them.
CompressFn ShaNiCompressor();

/// The compressor Sha256 uses: ShaNiCompressor() when available, otherwise
/// CompressPortable. Chosen on first use and fixed for the process.
CompressFn ActiveCompressor();

}  // namespace mmlib::sha256_internal
