// Package ckpt is the on-disk checkpoint envelope behind cmd/replay's
// crash-safe progress record. It frames an opaque payload with enough
// metadata to reject the three ways a resume can go wrong: resuming the
// wrong thing (a typed kind string), resuming across an incompatible
// encoding change (an explicit version), and resuming against a
// different configuration than the one that produced the checkpoint (a
// caller-supplied fingerprint). A CRC-64 trailer rejects torn or
// corrupted files — a process SIGKILLed mid-write must never be able to
// half-resume.
//
// Layout (all integers little-endian):
//
//	offset  size  field
//	0       8     magic "DSCKPT01"
//	8       1     kind length n (1..255)
//	9       n     kind (UTF-8, no NULs)
//	9+n     4     version
//	13+n    8     fingerprint
//	21+n    8     payload length m
//	29+n    m     payload
//	29+n+m  8     CRC-64/ECMA of bytes [0, 29+n+m)
//
// Writes go through a temp file plus rename, so a checkpoint file is
// either the complete previous checkpoint or the complete new one.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"strings"
)

// Magic identifies a checkpoint file; bump the trailing digits on any
// incompatible envelope (not payload) change.
const Magic = "DSCKPT01"

// maxPayload caps the decoded payload size (1 GiB): a corrupted length
// field must not become a giant allocation.
const maxPayload = 1 << 30

// Envelope is one framed checkpoint.
type Envelope struct {
	// Kind names the payload type (e.g. "replay-progress"); 1–255 bytes.
	Kind string
	// Version is the payload encoding version; readers reject versions
	// they do not understand.
	Version uint32
	// Fingerprint binds the checkpoint to the configuration that produced
	// it; resuming verifies it against the fingerprint recomputed from the
	// live configuration.
	Fingerprint uint64
	// Payload is the opaque checkpoint body.
	Payload []byte
}

// FormatError reports a checkpoint that failed to decode or verify —
// corrupted, truncated, or produced by an incompatible writer. Resumers
// should treat it as "no checkpoint" (start fresh), not as a fatal error.
type FormatError struct {
	Path   string // empty for in-memory decodes
	Reason string
}

func (e *FormatError) Error() string {
	if e.Path == "" {
		return "ckpt: " + e.Reason
	}
	return fmt.Sprintf("ckpt: %s: %s", e.Path, e.Reason)
}

// IsFormat reports whether err is a checkpoint format/verification error.
func IsFormat(err error) bool {
	_, ok := err.(*FormatError)
	return ok
}

var crcTable = crc64.MakeTable(crc64.ECMA)

// Encode frames the envelope.
func Encode(e Envelope) ([]byte, error) {
	if len(e.Kind) == 0 || len(e.Kind) > 255 {
		return nil, fmt.Errorf("ckpt: kind length %d out of range [1,255]", len(e.Kind))
	}
	if strings.IndexByte(e.Kind, 0) >= 0 {
		return nil, fmt.Errorf("ckpt: kind contains NUL")
	}
	if len(e.Payload) > maxPayload {
		return nil, fmt.Errorf("ckpt: payload %d bytes exceeds cap %d", len(e.Payload), maxPayload)
	}
	n := len(Magic) + 1 + len(e.Kind) + 4 + 8 + 8 + len(e.Payload) + 8
	b := make([]byte, 0, n)
	b = append(b, Magic...)
	b = append(b, byte(len(e.Kind)))
	b = append(b, e.Kind...)
	b = binary.LittleEndian.AppendUint32(b, e.Version)
	b = binary.LittleEndian.AppendUint64(b, e.Fingerprint)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(e.Payload)))
	b = append(b, e.Payload...)
	b = binary.LittleEndian.AppendUint64(b, crc64.Checksum(b, crcTable))
	return b, nil
}

// Decode parses and verifies a framed envelope. Any deviation — wrong
// magic, truncation, trailing garbage, CRC mismatch — is a *FormatError.
func Decode(b []byte) (Envelope, error) {
	fail := func(reason string) (Envelope, error) {
		return Envelope{}, &FormatError{Reason: reason}
	}
	if len(b) < len(Magic)+1 {
		return fail("truncated header")
	}
	if string(b[:len(Magic)]) != Magic {
		return fail("bad magic")
	}
	kl := int(b[len(Magic)])
	if kl == 0 {
		return fail("empty kind")
	}
	off := len(Magic) + 1
	if len(b) < off+kl+4+8+8 {
		return fail("truncated header")
	}
	e := Envelope{Kind: string(b[off : off+kl])}
	off += kl
	e.Version = binary.LittleEndian.Uint32(b[off:])
	off += 4
	e.Fingerprint = binary.LittleEndian.Uint64(b[off:])
	off += 8
	plen := binary.LittleEndian.Uint64(b[off:])
	off += 8
	if plen > maxPayload {
		return fail(fmt.Sprintf("payload length %d exceeds cap", plen))
	}
	if uint64(len(b)-off) < plen+8 {
		return fail("truncated payload")
	}
	if uint64(len(b)-off) > plen+8 {
		return fail("trailing garbage")
	}
	e.Payload = append([]byte(nil), b[off:off+int(plen)]...)
	body := b[:off+int(plen)]
	want := binary.LittleEndian.Uint64(b[off+int(plen):])
	if crc64.Checksum(body, crcTable) != want {
		return fail("CRC mismatch")
	}
	return e, nil
}

// Expect verifies the envelope's identity against what the resumer needs.
// A mismatch is a *FormatError: the file is a valid checkpoint, just not
// one this configuration can resume from.
func (e Envelope) Expect(kind string, version uint32, fingerprint uint64) error {
	if e.Kind != kind {
		return &FormatError{Reason: fmt.Sprintf("kind %q, want %q", e.Kind, kind)}
	}
	if e.Version != version {
		return &FormatError{Reason: fmt.Sprintf("version %d, want %d", e.Version, version)}
	}
	if e.Fingerprint != fingerprint {
		return &FormatError{Reason: fmt.Sprintf("fingerprint %x, want %x (checkpoint is from a different configuration)", e.Fingerprint, fingerprint)}
	}
	return nil
}

// WriteFile atomically writes the envelope to path: encode, write to a
// temp file in the same directory, fsync, rename. A crash at any point
// leaves either the old complete file or the new complete file.
func WriteFile(path string, e Envelope) error {
	b, err := Encode(e)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer os.Remove(tmp) // no-op after a successful rename
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ReadFile reads and verifies a checkpoint file. Decode failures carry
// the path in the *FormatError; a missing file returns the os error
// unwrapped (check with os.IsNotExist / errors.Is(err, fs.ErrNotExist)).
func ReadFile(path string) (Envelope, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Envelope{}, err
	}
	e, err := Decode(b)
	if err != nil {
		if fe, ok := err.(*FormatError); ok {
			fe.Path = path
		}
		return Envelope{}, err
	}
	return e, nil
}
