package obs

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// Reflection-free JSON appenders for the schedd submit response, each
// byte-identical to encoding/json, and for the -events writer's detail
// field. The differential fuzz test FuzzSubmitResponseMatchesJSON
// (internal/service) holds them to encoding/json.

// AppendJSONFloat appends f as encoding/json encodes a float64: the
// shortest decimal that round-trips, in exponent form below 1e-6 and from
// 1e21 on, with a one-digit negative exponent left unpadded. It reports
// false, appending nothing, for NaN and ±Inf, which encoding/json
// rejects.
func AppendJSONFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 → e-7
		b = b[:n-1]
	}
	return b, true
}

// AppendJSONString appends s quoted as encoding/json writes a string with
// HTML escaping on (json.Marshal, and json.Encoder by default): <, > and
// & become \u003c, \u003e and \u0026; \b, \f, \n, \r and \t take their
// short escapes and other control bytes \u00XX; invalid UTF-8 becomes
// \ufffd; and U+2028 and U+2029 are escaped.
func AppendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

const hexDigits = "0123456789abcdef"
