// Package dstore implements portendd's durable tier store: one file per
// cache tier, in a versioned, checksummed container format, written
// crash-safely.
//
// File format (schema portend-tier/2):
//
//	magic    "portend-tier/2\n"
//	length   8 bytes, big-endian — payload byte count
//	payload  gob-encoded snapshot (the caller's type; dstore is agnostic)
//	crc      4 bytes, big-endian — IEEE CRC-32 of the payload
//
// Writes go to a temp file in the same directory followed by an atomic
// rename, so a crash mid-write leaves either the old file or a stray
// .tmp (ignored by Scan and Load) — never a half-written tier under the
// live name. Load verifies magic, length, and CRC before decoding;
// anything that fails verification is reported as ErrBadFile so the
// caller can quarantine it (Quarantine renames the file aside, keeping
// the evidence while getting it out of the load path). A quarantined or
// missing tier only costs warmth: the daemon re-analyzes cold.
//
// Fault-injection points (internal/fault): dstore.write fails a write
// before any bytes land, dstore.truncate renames a deliberately
// truncated file into place (a simulated torn write the CRC must catch),
// and tier.load.fail fails a Load.
package dstore

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/fault"
)

// Schema is the container format identifier; it doubles as the file
// magic (newline-terminated). Bump it when the snapshot wire form
// changes incompatibly — old files then fail the magic check and are
// quarantined, never misdecoded.
const Schema = "portend-tier/2"

const (
	suffix           = ".tier"
	tmpSuffix        = ".tmp"
	quarantineSuffix = ".quarantine"
)

// ErrNotFound reports that no tier file exists for the key.
var ErrNotFound = errors.New("dstore: no tier file")

// ErrBadFile reports a tier file that failed verification — wrong magic
// (version skew), truncation, checksum mismatch, or undecodable payload.
// Callers should Quarantine the key and proceed cold.
var ErrBadFile = errors.New("dstore: bad tier file")

// Dir is a durable tier directory.
type Dir struct {
	path string
}

// Open returns a Dir rooted at path, creating the directory if needed.
func Open(path string) (*Dir, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("dstore: %w", err)
	}
	return &Dir{path: path}, nil
}

// Path returns the directory root.
func (d *Dir) Path() string { return d.path }

// checkKey rejects keys that could escape the directory. Keys are the
// server's hex fingerprint hashes; anything else is a programming error.
func checkKey(key string) error {
	if key == "" || strings.ContainsAny(key, "/\\.") {
		return fmt.Errorf("dstore: invalid tier key %q", key)
	}
	return nil
}

func (d *Dir) file(key string) string { return filepath.Join(d.path, key+suffix) }

// Write serializes payload under key, crash-safely: encode, frame,
// write to a temp file, fsync, rename. On any error the live file (if
// one exists) is untouched.
func (d *Dir) Write(key string, payload any) error {
	if err := checkKey(key); err != nil {
		return err
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(payload); err != nil {
		return fmt.Errorf("dstore: encode %s: %w", key, err)
	}
	if fault.Fire(fault.DStoreWrite) {
		return fmt.Errorf("dstore: %s: injected write failure", key)
	}

	buf := make([]byte, 0, len(Schema)+1+12+body.Len())
	buf = append(buf, Schema...)
	buf = append(buf, '\n')
	buf = binary.BigEndian.AppendUint64(buf, uint64(body.Len()))
	buf = append(buf, body.Bytes()...)
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(body.Bytes()))

	if fault.Fire(fault.DStoreTruncate) {
		// Simulate a torn write that still reached the live name: the
		// CRC (or the length check) must catch it on the next load.
		buf = buf[:len(Schema)+1+12+body.Len()/2]
	}

	tmp := d.file(key) + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("dstore: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("dstore: write %s: %w", key, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("dstore: sync %s: %w", key, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("dstore: close %s: %w", key, err)
	}
	if err := os.Rename(tmp, d.file(key)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("dstore: rename %s: %w", key, err)
	}
	return nil
}

// Load verifies and decodes the tier file for key into out (a pointer to
// the payload type Write was given). ErrNotFound means no file;
// ErrBadFile (wrapped with detail) means the file failed verification
// and should be quarantined.
func (d *Dir) Load(key string, out any) error {
	if err := checkKey(key); err != nil {
		return err
	}
	if fault.Fire(fault.TierLoadFail) {
		return fmt.Errorf("dstore: %s: injected load failure", key)
	}
	raw, err := os.ReadFile(d.file(key))
	if err != nil {
		if os.IsNotExist(err) {
			return ErrNotFound
		}
		return fmt.Errorf("dstore: read %s: %w", key, err)
	}

	magic := []byte(Schema + "\n")
	if !bytes.HasPrefix(raw, magic) {
		return fmt.Errorf("%w: %s: missing or foreign schema magic (want %q)", ErrBadFile, key, Schema)
	}
	rest := raw[len(magic):]
	if len(rest) < 12 {
		return fmt.Errorf("%w: %s: truncated header", ErrBadFile, key)
	}
	n := binary.BigEndian.Uint64(rest[:8])
	rest = rest[8:]
	if n > uint64(len(rest)-4) { // len(rest) >= 4: the header check above
		return fmt.Errorf("%w: %s: truncated payload (%d of %d bytes)", ErrBadFile, key, len(rest)-4, n)
	}
	body := rest[:n]
	want := binary.BigEndian.Uint32(rest[n : n+4])
	if got := crc32.ChecksumIEEE(body); got != want {
		return fmt.Errorf("%w: %s: checksum mismatch (%08x != %08x)", ErrBadFile, key, got, want)
	}
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(out); err != nil {
		return fmt.Errorf("%w: %s: undecodable payload: %v", ErrBadFile, key, err)
	}
	return nil
}

// Quarantine moves the tier file for key aside (key.tier.quarantine,
// replacing any earlier quarantine), so a corrupt file stops shadowing
// the key but remains on disk for inspection. Missing files are a no-op.
func (d *Dir) Quarantine(key string) error {
	if err := checkKey(key); err != nil {
		return err
	}
	err := os.Rename(d.file(key), d.file(key)+quarantineSuffix)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("dstore: quarantine %s: %w", key, err)
	}
	return nil
}

// Remove deletes the tier file for key (used when a tier is poisoned by
// a panicking run). Missing files are a no-op.
func (d *Dir) Remove(key string) error {
	if err := checkKey(key); err != nil {
		return err
	}
	if err := os.Remove(d.file(key)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("dstore: remove %s: %w", key, err)
	}
	return nil
}

// Scan returns the keys of all live tier files, sorted (os.ReadDir
// orders by name). Temp and quarantined files are excluded.
func (d *Dir) Scan() ([]string, error) {
	ents, err := os.ReadDir(d.path)
	if err != nil {
		return nil, fmt.Errorf("dstore: scan: %w", err)
	}
	var keys []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, suffix) {
			continue
		}
		keys = append(keys, strings.TrimSuffix(name, suffix))
	}
	return keys, nil
}
