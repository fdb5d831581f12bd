package jobspec

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// Submission is a job submission, the body of cmd/schedd's POST /v1/jobs:
// the submitting tenant, an optional arrival instant in simulated seconds,
// and the job.
type Submission struct {
	Tenant  string   `json:"tenant"`
	Arrival *float64 `json:"arrival"`
	Job     *Spec    `json:"job"`
}

// errDuplicateKey and errTrailingData mark the two inputs the decoder
// rejects where encoding/json does not: a key given twice in one object,
// which encoding/json merges, and data after the top-level value, which a
// json.Decoder leaves unread. errOverLimit marks a job over the stage
// limit.
var (
	errDuplicateKey = errors.New("duplicate key")
	errTrailingData = errors.New("data after the top-level value")
	errOverLimit    = errors.New("over the limit")
)

// DecodeSubmission decodes a Submission from data in one pass. A job with
// more than maxStages stages is rejected when its stage maxStages+1
// begins, before anything after it is read. The job is not validated:
// Spec.Job does that.
//
// On every other input the decoder accepts and rejects exactly what
// encoding/json with DisallowUnknownFields does, and fills the same
// values:
//   - A key names a field when it equals the field's name under
//     bytes.EqualFold, after its escapes are resolved. An unknown key at
//     any level is an error.
//   - null leaves a number or string as it is and sets the arrival, the
//     job, a stage's phases, resources or parents to nil. A null stage is
//     a zero StageSpec and a null parent a zero ID.
//   - A float is strconv.ParseFloat of its literal, bit for bit; an
//     out-of-range literal such as 1e400 is an error. An integer field
//     rejects a fraction, an exponent and overflow.
//   - A string decodes as encoding/json decodes it: invalid UTF-8 and
//     lone surrogates become U+FFFD.
//
// It is stricter in two ways: a key given twice in one object, counting
// keys that name the same field, and anything but whitespace after the
// top-level value are errors.
func DecodeSubmission(data []byte, maxStages int) (Submission, error) {
	sub, _, err := DecodeSubmissionKnown(data, maxStages, nil)
	return sub, err
}

// DecodeSubmissionKnown is DecodeSubmission that also returns the bytes
// of the job value, a window of data, and skips a job the caller already
// holds. When known is not nil and the job value is an object, a
// structural scan first finds where the object ends, and known is asked
// about its bytes. If it answers true, the job is not decoded: sub.Job
// is nil and job holds the bytes. Otherwise the job is decoded as
// DecodeSubmission decodes it. The rest of the submission is decoded in
// full either way, so a duplicate key or trailing data is still an error.
//
// known may answer true only for bytes that a job value decoded without
// error under the same maxStages. They decode the same wherever they
// appear, as the decoder reads nothing past a value's closing brace, and
// on such bytes the scan ends exactly where the decode does.
func DecodeSubmissionKnown(data []byte, maxStages int, known func(job []byte) bool) (sub Submission, job []byte, err error) {
	d := decoder{data: data, maxStages: maxStages, known: known}
	if !d.null() {
		if err := d.submission(&sub); err != nil {
			return Submission{}, nil, err
		}
	}
	if err := d.end(); err != nil {
		return Submission{}, nil, err
	}
	return sub, d.jobBytes, nil
}

// decodeSpec decodes a bare Spec from data under DecodeSubmission's rules
// and with no stage limit.
func decodeSpec(data []byte) (*Spec, error) {
	d := decoder{data: data, maxStages: math.MaxInt}
	s := new(Spec)
	if !d.null() {
		if err := d.spec(s); err != nil {
			return nil, err
		}
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	return s, nil
}

// The fields of each object, by their JSON names.
var (
	submissionFields = []string{"tenant", "arrival", "job"}
	specFields       = []string{"name", "stages"}
	stageFields      = []string{"id", "name", "parents", "phases", "resources"}
	phaseFields      = []string{"read_sec", "compute_sec", "write_sec", "skew", "tasks"}
	resourceFields   = []string{"shuffle_in_bytes", "shuffle_out_bytes", "proc_rate_bps", "skew", "tasks"}
)

// decoder reads one JSON value from data. Like trace ingestion, it packs
// a spec's small parts into shared arrays: parent lists are windows of one
// growing []int, and phases and resources come out of chunks, so a spec
// costs a few allocations rather than several per stage.
type decoder struct {
	data      []byte
	off       int
	maxStages int
	buf       []byte // a string's resolved escapes

	known    func([]byte) bool // DecodeSubmissionKnown's lookup
	jobBytes []byte            // the job value, once read

	parents   []int
	phases    []PhaseSpec
	resources []ResourceSpec
}

// ws skips whitespace and returns the next byte, or 0 at the end of data.
func (d *decoder) ws() byte {
	for ; d.off < len(d.data); d.off++ {
		if c := d.data[d.off]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

// unexpected reports that what is at the current offset is not want.
func (d *decoder) unexpected(want string) error {
	if d.off >= len(d.data) {
		return fmt.Errorf("jobspec: at offset %d: want %s, found the end of the input", d.off, want)
	}
	return fmt.Errorf("jobspec: at offset %d: want %s, found %q", d.off, want, d.data[d.off])
}

// end checks that only whitespace follows the top-level value.
func (d *decoder) end() error {
	if d.ws(); d.off < len(d.data) {
		return fmt.Errorf("jobspec: at offset %d: %w", d.off, errTrailingData)
	}
	return nil
}

// null consumes a null literal if one is next.
func (d *decoder) null() bool {
	if d.ws() == 'n' && bytes.HasPrefix(d.data[d.off:], []byte("null")) {
		d.off += len("null")
		return true
	}
	return false
}

// open consumes the byte that opens an object or array.
func (d *decoder) open(c byte, want string) error {
	if d.ws() != c {
		return d.unexpected(want)
	}
	d.off++
	return nil
}

// field reads the keys of the object being decoded up to the next one
// whose value is not null and returns the name of that key's field, or ""
// after the closing brace. A null value is skipped: the decoder's values
// start out zero, and each field is set at most once. seen marks the
// fields whose keys the object has given.
func (d *decoder) field(names []string, seen *uint32) (string, error) {
	for {
		c := d.ws()
		if c == '}' {
			d.off++
			return "", nil
		}
		if *seen != 0 {
			if c != ',' {
				return "", d.unexpected("',' or '}'")
			}
			d.off++
		}
		key, err := d.str()
		if err != nil {
			return "", err
		}
		f := match(key, names)
		if f < 0 {
			return "", fmt.Errorf("jobspec: unknown field %q", key)
		}
		if *seen&(1<<f) != 0 {
			return "", fmt.Errorf("jobspec: %w %q", errDuplicateKey, key)
		}
		*seen |= 1 << f
		if d.ws() != ':' {
			return "", d.unexpected("':'")
		}
		d.off++
		if !d.null() {
			return names[f], nil
		}
	}
}

// match returns the index of the name that key equals under
// bytes.EqualFold, or -1. No two names are equal under it.
func match(key []byte, names []string) int {
	for f, name := range names {
		if string(key) == name {
			return f
		}
	}
	for f, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return f
		}
	}
	return -1
}

// elem reads what precedes the next element of the array being decoded,
// and reports false after the closing bracket instead. n counts the
// elements read so far.
func (d *decoder) elem(n int) (bool, error) {
	c := d.ws()
	if c == ']' {
		d.off++
		return false, nil
	}
	if n > 0 {
		if c != ',' {
			return false, d.unexpected("',' or ']'")
		}
		d.off++
	}
	return true, nil
}

// str reads a string and returns its bytes with escapes resolved. They
// alias data or the decoder's buffer, so they are valid until the next
// string is read.
func (d *decoder) str() ([]byte, error) {
	if d.ws() != '"' {
		return nil, d.unexpected("a string")
	}
	start := d.off + 1
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.off = i + 1
			return d.data[start:i], nil
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			return d.unquote(start, i)
		}
	}
	d.off = len(d.data)
	return nil, d.unexpected("'\"'")
}

// unquote finishes a string whose plain ASCII prefix data[start:i] has
// been scanned, as encoding/json's unquote does.
func (d *decoder) unquote(start, i int) ([]byte, error) {
	b := append(d.buf[:0], d.data[start:i]...)
	for i < len(d.data) {
		switch c := d.data[i]; {
		case c == '"':
			d.buf, d.off = b, i+1
			return b, nil
		case c < ' ':
			d.off = i
			return nil, d.unexpected("a string character")
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(d.data[i:])
			b = utf8.AppendRune(b, r)
			i += size
		case c != '\\':
			b = append(b, c)
			i++
		case i+1 < len(d.data) && d.data[i+1] == 'u':
			r := getu4(d.data[i:])
			if r < 0 {
				d.off = i
				return nil, d.unexpected(`a \uXXXX escape`)
			}
			i += 6
			if utf16.IsSurrogate(r) {
				// A surrogate pair is one rune; a lone half is U+FFFD, and
				// an escape after it is read on its own.
				if pair := utf16.DecodeRune(r, getu4(d.data[i:])); pair != unicode.ReplacementChar {
					r = pair
					i += 6
				} else {
					r = unicode.ReplacementChar
				}
			}
			b = utf8.AppendRune(b, r)
		default:
			d.off = i + 1
			if d.off == len(d.data) {
				return nil, d.unexpected("an escape character")
			}
			switch e := d.data[d.off]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			default:
				return nil, d.unexpected("an escape character")
			}
			i += 2
		}
	}
	d.off = len(d.data)
	return nil, d.unexpected("'\"'")
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// text reads a string value.
func (d *decoder) text() (string, error) {
	b, err := d.str()
	return string(b), err
}

// number scans a number literal and returns its bytes.
func (d *decoder) number() ([]byte, error) {
	d.ws()
	start, i := d.off, d.off
	if i < len(d.data) && d.data[i] == '-' {
		i++
	}
	ok := true
	if i < len(d.data) && d.data[i] == '0' {
		i++
	} else {
		i, ok = digits(d.data, i)
	}
	if ok && i < len(d.data) && d.data[i] == '.' {
		i, ok = digits(d.data, i+1)
	}
	if ok && i < len(d.data) && (d.data[i] == 'e' || d.data[i] == 'E') {
		if i++; i < len(d.data) && (d.data[i] == '+' || d.data[i] == '-') {
			i++
		}
		i, ok = digits(d.data, i)
	}
	d.off = i
	if !ok {
		return nil, d.unexpected("a digit")
	}
	return d.data[start:i], nil
}

// digits returns the offset past the digits that start data[i:], and
// whether there is at least one.
func digits(data []byte, i int) (int, bool) {
	j := i
	for j < len(data) && '0' <= data[j] && data[j] <= '9' {
		j++
	}
	return j, j > i
}

// float reads a number into a float64.
func (d *decoder) float() (float64, error) {
	lit, err := d.number()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, fmt.Errorf("jobspec: number %s does not fit a float64", lit)
	}
	return f, nil
}

// intN reads a number into an integer of the given bit size.
func (d *decoder) intN(bits int) (int64, error) {
	lit, err := d.number()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(lit), 10, bits)
	if err != nil {
		return 0, fmt.Errorf("jobspec: number %s is not an int%d", lit, bits)
	}
	return n, nil
}

// integer reads a number into an int.
func (d *decoder) integer() (int, error) {
	n, err := d.intN(strconv.IntSize)
	return int(n), err
}

func (d *decoder) submission(sub *Submission) error {
	if err := d.open('{', "an object"); err != nil {
		return err
	}
	var seen uint32
	for {
		name, err := d.field(submissionFields, &seen)
		if name == "" || err != nil {
			return err
		}
		switch name {
		case "tenant":
			sub.Tenant, err = d.text()
		case "arrival":
			sub.Arrival = new(float64)
			*sub.Arrival, err = d.float()
		case "job":
			err = d.job(sub)
		}
		if err != nil {
			return err
		}
	}
}

// job reads the submission's job value and records its bytes, skipping
// it when the decoder's lookup knows them.
func (d *decoder) job(sub *Submission) error {
	start := d.off // field has skipped the whitespace before the value
	if d.known != nil {
		if end := skipObject(d.data, start); end > 0 && d.known(d.data[start:end]) {
			d.off, d.jobBytes = end, d.data[start:end]
			return nil
		}
	}
	sub.Job = new(Spec)
	if err := d.spec(sub.Job); err != nil {
		return err
	}
	d.jobBytes = d.data[start:d.off]
	return nil
}

// skipObject returns the offset just past the object that opens at
// data[i], found by counting brackets outside strings, or -1 when data[i]
// is not '{' or the brackets do not close. It checks no other syntax: on
// input the decoder accepts, it ends where the decode ends.
func skipObject(data []byte, i int) int {
	if i >= len(data) || data[i] != '{' {
		return -1
	}
	depth := 0
	for ; i < len(data); i++ {
		switch data[i] {
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				return i + 1
			}
		case '"':
			for i++; i < len(data) && data[i] != '"'; i++ {
				if data[i] == '\\' {
					i++ // the escaped byte, which may be a quote
				}
			}
		}
	}
	return -1
}

func (d *decoder) spec(s *Spec) error {
	if err := d.open('{', "an object"); err != nil {
		return err
	}
	var seen uint32
	for {
		name, err := d.field(specFields, &seen)
		if name == "" || err != nil {
			return err
		}
		switch name {
		case "name":
			s.Name, err = d.text()
		case "stages":
			s.Stages, err = d.stages()
		}
		if err != nil {
			return err
		}
	}
}

// stages reads the stage array, stopping at stage maxStages+1.
func (d *decoder) stages() ([]StageSpec, error) {
	if err := d.open('[', "an array"); err != nil {
		return nil, err
	}
	stages := []StageSpec{}
	for n := 0; ; n++ {
		more, err := d.elem(n)
		if !more || err != nil {
			return stages, err
		}
		if n == d.maxStages {
			return nil, fmt.Errorf("jobspec: job has at least %d stages, %w of %d", n+1, errOverLimit, d.maxStages)
		}
		stages = append(stages, StageSpec{})
		if !d.null() {
			if err := d.stage(&stages[n]); err != nil {
				return nil, err
			}
		}
	}
}

func (d *decoder) stage(st *StageSpec) error {
	if err := d.open('{', "an object"); err != nil {
		return err
	}
	var seen uint32
	for {
		name, err := d.field(stageFields, &seen)
		if name == "" || err != nil {
			return err
		}
		switch name {
		case "id":
			st.ID, err = d.integer()
		case "name":
			st.Name, err = d.text()
		case "parents":
			st.Parents, err = d.parentList()
		case "phases":
			st.Phases = carve(&d.phases)
			err = d.phaseSpec(st.Phases)
		case "resources":
			st.Resources = carve(&d.resources)
			err = d.resourceSpec(st.Resources)
		}
		if err != nil {
			return err
		}
	}
}

// parentList reads a parent array into a window of the decoder's shared
// parent list; the window's capacity ends at its length, so appending to
// one stage's parents never writes into another's.
func (d *decoder) parentList() ([]int, error) {
	if err := d.open('[', "an array"); err != nil {
		return nil, err
	}
	start := len(d.parents)
	for n := 0; ; n++ {
		more, err := d.elem(n)
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
		id := 0
		if !d.null() {
			if id, err = d.integer(); err != nil {
				return nil, err
			}
		}
		d.parents = append(d.parents, id)
	}
	if len(d.parents) == start {
		return []int{}, nil // [] is an empty list, not nil
	}
	return d.parents[start:len(d.parents):len(d.parents)], nil
}

func (d *decoder) phaseSpec(p *PhaseSpec) error {
	if err := d.open('{', "an object"); err != nil {
		return err
	}
	var seen uint32
	for {
		name, err := d.field(phaseFields, &seen)
		if name == "" || err != nil {
			return err
		}
		switch name {
		case "read_sec":
			p.ReadSec, err = d.float()
		case "compute_sec":
			p.ComputeSec, err = d.float()
		case "write_sec":
			p.WriteSec, err = d.float()
		case "skew":
			p.Skew, err = d.float()
		case "tasks":
			p.Tasks, err = d.integer()
		}
		if err != nil {
			return err
		}
	}
}

func (d *decoder) resourceSpec(r *ResourceSpec) error {
	if err := d.open('{', "an object"); err != nil {
		return err
	}
	var seen uint32
	for {
		name, err := d.field(resourceFields, &seen)
		if name == "" || err != nil {
			return err
		}
		switch name {
		case "shuffle_in_bytes":
			r.ShuffleInBytes, err = d.intN(64)
		case "shuffle_out_bytes":
			r.ShuffleOutBytes, err = d.intN(64)
		case "proc_rate_bps":
			r.ProcRateBps, err = d.float()
		case "skew":
			r.Skew, err = d.float()
		case "tasks":
			r.Tasks, err = d.integer()
		}
		if err != nil {
			return err
		}
	}
}

// carve returns a zero T from the chunk, starting a new chunk when it is
// full. Earlier pointers keep the old chunk: it is never copied or
// written again.
func carve[T any](chunk *[]T) *T {
	if len(*chunk) == cap(*chunk) {
		*chunk = make([]T, 0, 2*cap(*chunk)+4)
	}
	*chunk = (*chunk)[:len(*chunk)+1]
	return &(*chunk)[len(*chunk)-1]
}
