package trace

import (
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

// The JSON encoders: the Chrome trace-event document and the telemetry
// window line. Each writes what encoding/json makes of the same value —
// object keys sorted, HTML-escaped strings, one trailing newline — because
// that is the byte format every trace and JSONL file written so far has,
// and readers diff them. Everything a kind (or a window's shape) fixes is
// rendered once, so encoding an event or a window is a few appends.

// kindJSON is the constant text of one kind's event object, split at the
// numbers: arg[0] v0 arg[1] v1 ... mid [dur tail] tid `,"ts":` ts `}`.
type kindJSON struct {
	arg  [MaxArgs]string // `{"args":{"k0":`, `,"k1":`, `,"k2":`
	mid  string          // closes args, carries cat; for spans ends in `"dur":`
	tail string          // spans only: from `,"name":` through `"tid":`
}

func quoteJSON(s string) string { return string(appendQuoted(nil, s)) }

// appendQuoted appends s as a JSON string, spelled as encoding/json spells
// it: HTML-escaped, short escapes where JSON has them, invalid UTF-8 as
// \ufffd, and U+2028/U+2029 escaped.
func appendQuoted(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case r == utf8.RuneError && size == 1:
				b = append(b, `\ufffd`...)
			case r == '\u2028' || r == '\u2029':
				b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
			default:
				b = append(b, s[i:i+size]...)
			}
			i += size
			continue
		}
		switch c {
		case '\\', '"':
			b = append(b, '\\', c)
		case '\b':
			b = append(b, '\\', 'b')
		case '\f':
			b = append(b, '\\', 'f')
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case '\t':
			b = append(b, '\\', 't')
		default:
			if c < 0x20 || c == '<' || c == '>' || c == '&' {
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			} else {
				b = append(b, c)
			}
		}
		i++
	}
	return append(b, '"')
}

// objectKeys renders the keys of an object of numbers, in order:
// `{"k0":`, `,"k1":`, ...
func objectKeys(names ...string) []string {
	keys := make([]string, len(names))
	for i, name := range names {
		keys[i] = "," + quoteJSON(name) + ":"
	}
	keys[0] = "{" + keys[0][1:]
	return keys
}

// appendObject appends an object of numbers under keys rendered by
// objectKeys, one value per key.
func appendObject(b []byte, keys []string, vals ...int64) []byte {
	for i, v := range vals {
		b = strconv.AppendInt(append(b, keys[i]...), v, 10)
	}
	return append(b, '}')
}

// appendFloat appends a finite f as encoding/json spells a float64: the
// shortest decimal that round-trips, in exponent form (exponent unpadded)
// only below 1e-6 or from 1e21 up.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 -> e-7
		b = b[:n-1]
	}
	return b
}

// renderVocabulary pre-renders every row of a vocabulary.
func renderVocabulary(rows []KindInfo) []kindJSON {
	out := make([]kindJSON, len(rows))
	for i, row := range rows {
		kj := &out[i]
		head := "{"
		for a, key := range row.Keys {
			if a == 0 {
				kj.arg[a] = `{"args":{` + quoteJSON(key) + ":"
			} else {
				kj.arg[a] = "," + quoteJSON(key) + ":"
			}
			head = "},"
		}
		if row.Cat != "" {
			head += `"cat":` + quoteJSON(row.Cat) + ","
		}
		rest := `"name":` + quoteJSON(row.Name) + `,"ph":"` + string(rune(row.Ph)) + `","pid":0,`
		if row.Ph == PhInstant {
			rest += `"s":"t",` // thread-scoped instant
		}
		rest += `"tid":`
		if row.Ph == PhSpan {
			kj.mid, kj.tail = head+`"dur":`, ","+rest
		} else {
			kj.mid = head + rest
		}
	}
	return out
}

var vocabJSON = renderVocabulary(Vocabulary[:])

// flushAt is the buffered size at which encode hands bytes to the writer.
const flushAt = 32 << 10

// encode streams one snapshot as a trace-event document: labels first, then
// events in emission order.
func encode(w io.Writer, kinds []kindJSON, s snapshot) error {
	d := beginDoc(w, s)
	d.events(kinds, s.events)
	return d.end()
}

// doc streams a trace-event document in pieces: the header and labels of
// a snapshot, then runs of events, then the close — so a recorder can
// encode its ring where it lies, run by run.
type doc struct {
	w   io.Writer
	b   []byte
	sep string
	err error
}

// beginDoc renders s's header and labels; s.events is not read.
func beginDoc(w io.Writer, s snapshot) *doc {
	b := make([]byte, 0, flushAt+1024)
	b = append(b, `{"displayTimeUnit":"ms","otherData":{"droppedEvents":`...)
	b = strconv.AppendInt(b, s.dropped, 10)
	if s.truncated {
		b = append(b, `,"truncated":true`...)
	}
	b = append(b, `},"traceEvents":[`...)
	sep := ""
	for _, l := range s.labels {
		b = append(b, sep...)
		b = append(b, `{"args":{"name":`...)
		b = appendQuoted(b, l.Name)
		b = append(b, `},"name":"thread_name","ph":"M","pid":0,"tid":`...)
		b = strconv.AppendInt(b, l.Tid, 10)
		b = append(b, `,"ts":0}`...)
		sep = ","
	}
	return &doc{w: w, b: b, sep: sep}
}

// events appends a run of events, handing the buffer to the writer each
// time it passes flushAt.
func (d *doc) events(kinds []kindJSON, evs []Event) {
	if d.err != nil {
		return
	}
	b := d.b
	for i := range evs {
		e := &evs[i]
		kj := &kinds[e.Kind]
		b = append(b, d.sep...)
		d.sep = ","
		for a := 0; a < MaxArgs && kj.arg[a] != ""; a++ {
			b = append(b, kj.arg[a]...)
			b = strconv.AppendInt(b, e.Args[a], 10)
		}
		b = append(b, kj.mid...)
		if kj.tail != "" {
			b = strconv.AppendInt(b, e.Dur, 10)
			b = append(b, kj.tail...)
		}
		b = strconv.AppendInt(b, int64(e.Tid), 10)
		b = append(b, `,"ts":`...)
		b = strconv.AppendInt(b, e.Ts, 10)
		b = append(b, '}')
		if len(b) >= flushAt {
			if _, d.err = d.w.Write(b); d.err != nil {
				return
			}
			b = b[:0]
		}
	}
	d.b = b
}

// end closes the document and writes what is left; it returns the first
// write error.
func (d *doc) end() error {
	if d.err != nil {
		return d.err
	}
	_, err := d.w.Write(append(d.b, "]}\n"...))
	return err
}
