package replay

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"

	"delaystage/internal/sim"
)

// The progress log is a checkpointed replay's crash-safe record: a header
// that binds it to one trace and flag set, then one fixed-size record per
// folded job, appended and fsynced in fold order. Record k is job k % n of
// variant k / n for n jobs per variant, so the log stores no indices, and
// a resume re-folds the records through Progress.add: the sums come out
// bit-identical to the run that wrote them.
//
// Layout (integers little-endian, CRCs CRC-32/IEEE):
//
//	header  offset  size  field
//	        0       8     magic "DSFOLD01"
//	        8       8     fingerprint
//	        16      4     CRC of bytes [0, 16)
//	record  0       1     failed flag (0 or 1)
//	        1       8     JCT(0), IEEE-754 bits
//	        9       8     AvgCPUUtil, IEEE-754 bits
//	        17      8     AvgNetUtil, IEEE-754 bits
//	        25      4     CRC of bytes [0, 25)
const (
	logMagic   = "DSFOLD01"
	headerSize = len(logMagic) + 8 + 4
	recordSize = 1 + 3*8 + 4
)

// record is one fold's input: everything Progress.add reads of a job's
// result.
type record struct {
	failed        bool
	jct, cpu, net float64
}

func recordOf(res *sim.Result) record {
	return record{failed: res.Failed(0) != nil, jct: res.JCT(0), cpu: res.AvgCPUUtil, net: res.AvgNetUtil}
}

// appendTo appends r's recordSize bytes to b.
func (r record) appendTo(b []byte) []byte {
	start := len(b)
	flag := byte(0)
	if r.failed {
		flag = 1
	}
	b = append(b, flag)
	for _, v := range [...]float64{r.jct, r.cpu, r.net} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
}

// parseRecord decodes recordSize bytes; ok is false unless the CRC
// matches and the flag is 0 or 1.
func parseRecord(b []byte) (r record, ok bool) {
	body := b[:recordSize-4]
	if body[0] > 1 || crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(b[recordSize-4:]) {
		return record{}, false
	}
	f64 := func(off int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b[off:])) }
	return record{failed: body[0] == 1, jct: f64(1), cpu: f64(9), net: f64(17)}, true
}

func appendHeader(b []byte, fingerprint uint64) []byte {
	start := len(b)
	b = append(b, logMagic...)
	b = binary.LittleEndian.AppendUint64(b, fingerprint)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
}

// unusableError is a file at the log's path that is not a log of this
// replay: a resume starts fresh over it.
type unusableError string

func (e unusableError) Error() string { return string(e) }

// refold checks r's header against fingerprint, then folds r's records
// into ps in order, record k into ps[k/n], up to the first one that is
// torn or fails its CRC, and at most len(ps)*n. It returns how many it
// folded.
func refold(r io.Reader, fingerprint uint64, n int, ps []*Progress) (int, error) {
	var buf [recordSize]byte
	if _, err := io.ReadFull(r, buf[:headerSize]); err == io.EOF || err == io.ErrUnexpectedEOF {
		return 0, unusableError("torn header")
	} else if err != nil {
		return 0, err
	}
	switch h := buf[:headerSize]; {
	case string(h[:len(logMagic)]) != logMagic:
		return 0, unusableError("bad magic")
	case crc32.ChecksumIEEE(h[:headerSize-4]) != binary.LittleEndian.Uint32(h[headerSize-4:]):
		return 0, unusableError("header CRC mismatch")
	case binary.LittleEndian.Uint64(h[len(logMagic):]) != fingerprint:
		return 0, unusableError(fmt.Sprintf("fingerprint %x, want %x (checkpoint is from a different configuration)",
			binary.LittleEndian.Uint64(h[len(logMagic):]), fingerprint))
	}
	k := 0
	for ; k < n*len(ps); k++ {
		if _, err := io.ReadFull(r, buf[:]); err == io.EOF || err == io.ErrUnexpectedEOF {
			break
		} else if err != nil {
			return k, err
		}
		rec, ok := parseRecord(buf[:])
		if !ok {
			break
		}
		ps[k/n].add(rec)
	}
	return k, nil
}

// Log is an open progress log, positioned after its last whole record.
type Log struct{ f *os.File }

// OpenLog opens the progress log at path for a replay of n jobs under
// len(ps) variants whose trace and flags hash to fingerprint; ps must be
// fresh. It returns the log ready to append and a note for the user ("" =
// nothing to say).
//
// Without resume it starts a fresh log. With resume it re-folds the log's
// valid records into ps, truncates what follows them (a torn or corrupt
// tail) and appends from there. A missing log starts fresh, and so does
// one that is not a log of this replay (a torn header, a wrong magic, a
// header that fails its CRC, a different fingerprint). Any other error is
// returned.
func OpenLog(path string, fingerprint uint64, n int, ps []*Progress, resume bool) (*Log, string, error) {
	if !resume {
		l, err := createLog(path, fingerprint)
		return l, "", err
	}
	// O_APPEND: after the truncation below, records land after the last
	// valid one wherever the reads left the offset.
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	if errors.Is(err, fs.ErrNotExist) {
		l, err := createLog(path, fingerprint)
		return l, fmt.Sprintf("no checkpoint at %s; starting fresh", path), err
	}
	if err != nil {
		return nil, "", err
	}
	k, err := refold(bufio.NewReader(f), fingerprint, n, ps)
	if unusable, ok := err.(unusableError); ok {
		f.Close()
		l, err := createLog(path, fingerprint)
		return l, fmt.Sprintf("unusable checkpoint (%s: %v); starting fresh", path, unusable), err
	}
	valid := int64(headerSize + k*recordSize)
	var st os.FileInfo
	if err == nil {
		st, err = f.Stat()
	}
	if err == nil {
		err = f.Truncate(valid)
	}
	if err != nil {
		f.Close()
		return nil, "", err
	}
	return &Log{f: f}, fmt.Sprintf("resumed from %s: recovered %d of %d runs, dropped %d torn tail bytes",
		path, k, n*len(ps), st.Size()-valid), nil
}

// createLog writes a fresh log holding only its header, and makes both
// the file and its directory entry durable: without the directory's
// fsync a power loss could lose the newly created file.
func createLog(path string, fingerprint uint64) (*Log, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if _, err = f.Write(appendHeader(nil, fingerprint)); err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = syncDir(filepath.Dir(path))
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f}, nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Append writes res's record after the last one and fsyncs it, so each
// fold survives a crash on its own. A nil Log appends nothing.
func (l *Log) Append(res *sim.Result) error {
	if l == nil {
		return nil
	}
	if _, err := l.f.Write(recordOf(res).appendTo(nil)); err != nil {
		return err
	}
	return l.f.Sync()
}

// Close closes the log's file. A nil Log has nothing to close.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	return l.f.Close()
}
