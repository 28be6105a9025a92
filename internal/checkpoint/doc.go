// Package checkpoint implements the versioned, checksummed container format
// for durable FTL metadata snapshots.
//
// GeckoRec makes crash recovery cheap, but a clean shutdown should not pay
// for a crash it did not have: a checkpoint written at Close/Flush lets the
// next start skip the recovery scan entirely and reload its RAM state at
// host-read bandwidth. Because a checkpoint that loads wrong is strictly
// worse than no checkpoint at all, the format is built so that every
// malformation — truncation, bit flips, version skew, staleness — is
// detected and surfaces as ErrInvalid, letting the caller fall back to
// GeckoRec instead of loading partial state.
//
// On-disk layout (all integers little-endian):
//
//	offset 0:  magic "GFTLCKPT" (8 bytes)
//	offset 8:  format version (uint32)
//	offset 12: sections until end of file, each framed as
//	           id (uint32) | len (uint32) | payload (len bytes) | crc (uint32)
//
// The CRC is CRC-32C (Castagnoli) over the section's id, length, and
// payload bytes, so a flipped bit anywhere in a section — including its
// framing — fails that section's checksum, and a flipped length either
// misaligns the checksum or runs past the end of the file. The file must
// end exactly on a section boundary; trailing garbage is invalid.
//
// The package knows nothing about what the sections mean. Section payloads
// are produced and consumed by internal/ftl, which encodes per-shard FTL
// state (block manager, GMD, mapping cache, Logarithmic Gecko run
// directory, heat classifier) with the Writer/Reader helpers and validates
// the decoded state against device truth before keeping any of it.
//
// A warm restart copies each checkpoint byte once: the export frames every
// section through one Writer into one buffer of the file's exact Size,
// WriteFile writes that buffer, ReadFile reads the file back into it, and
// each shard decodes its sections, which alias the buffer, straight into the
// RAM it already owns. Encode frames through the same Writer.
package checkpoint
