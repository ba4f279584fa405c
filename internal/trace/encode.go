package trace

import (
	"encoding/json"
	"io"
	"strconv"
)

// The Chrome trace-event encoder. The document is what encoding/json makes
// of map[string]any — object keys sorted, HTML-escaped strings, one trailing
// newline — because that is the byte format every trace written so far has,
// and readers diff traces. Everything about an event that its kind fixes is
// rendered once per vocabulary, so encoding an event is a few appends.

// kindJSON is the constant text of one kind's event object, split at the
// numbers: arg[0] v0 arg[1] v1 ... mid [dur tail] tid `,"ts":` ts `}`.
type kindJSON struct {
	arg  [MaxArgs]string // `{"args":{"k0":`, `,"k1":`, `,"k2":`
	mid  string          // closes args, carries cat; for spans ends in `"dur":`
	tail string          // spans only: from `,"name":` through `"tid":`
}

func quoteJSON(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // a string always marshals
	}
	return string(b)
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
		b = append(b, quoteJSON(l.Name)...)
		b = append(b, `},"name":"thread_name","ph":"M","pid":0,"tid":`...)
		b = strconv.AppendInt(b, l.Tid, 10)
		b = append(b, `,"ts":0}`...)
		sep = ","
	}
	for i := range s.events {
		e := &s.events[i]
		kj := &kinds[e.Kind]
		b = append(b, sep...)
		sep = ","
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
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	b = append(b, "]}\n"...)
	_, err := w.Write(b)
	return err
}
