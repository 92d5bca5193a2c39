package trace

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"iceclave/internal/sim"
)

// Format identifies a sniffed trace schema.
type Format int

// Known trace schemas. Sniffing happens on the header row, which names
// the native schema's columns directly.
const (
	FormatUnknown Format = iota
	FormatNative
)

// String names the format.
func (f Format) String() string {
	if f == FormatNative {
		return "native"
	}
	return "unknown"
}

// nativeHeader is the column layout the sniffer recognizes (lower-cased,
// space-trimmed).
var nativeHeader = []string{"arrival_us", "tenant", "workload", "class"}

// Read parses a CSV arrival trace from r, sniffing the schema from the
// header row. It returns the parsed entries in file order (BuildSchedule
// sorts), the sniffed format, and the first error encountered — a
// *ParseError for a malformed row, a wrapped ErrUnknownFormat for an
// unrecognized header, or r's own read error.
func Read(r io.Reader) ([]Entry, Format, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, FormatUnknown, err
	}
	return ReadBytes(data)
}

// ReadBytes is Read over an in-memory trace.
func ReadBytes(data []byte) ([]Entry, Format, error) {
	lines := strings.Split(string(data), "\n")
	// The header is the first non-blank line; everything before it must be
	// blank (a trace with leading garbage fails the sniff, not the rows).
	head := 0
	for head < len(lines) && blank(lines[head]) {
		head++
	}
	if head == len(lines) {
		return nil, FormatUnknown, fmt.Errorf("%w: empty input", ErrUnknownFormat)
	}
	format := sniff(lines[head])
	if format == FormatUnknown {
		return nil, FormatUnknown, fmt.Errorf("%w: %q", ErrUnknownFormat, strings.TrimRight(lines[head], "\r"))
	}
	var entries []Entry
	for i := head + 1; i < len(lines); i++ {
		if blank(lines[i]) {
			continue
		}
		fields, err := splitRow(lines[i], i+1, format)
		if err != nil {
			return nil, format, err
		}
		e, err := parseNative(fields, i+1)
		if err != nil {
			return nil, format, err
		}
		entries = append(entries, e)
	}
	return entries, format, nil
}

// blank reports whether a line carries no row (empty or CR/whitespace
// only) — the only lines a reader may skip.
func blank(line string) bool { return strings.TrimSpace(line) == "" }

// sniff matches the header row against the known column layout.
func sniff(header string) Format {
	cols := strings.Split(strings.TrimRight(header, "\r"), ",")
	for i, c := range cols {
		cols[i] = strings.ToLower(strings.TrimSpace(c))
	}
	if equalCols(cols, nativeHeader) {
		return FormatNative
	}
	return FormatUnknown
}

func equalCols(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// splitRow splits one data row and rejects ragged rows (the schema has
// exactly four columns). Field values are space-trimmed; the trace
// schemas carry no quoting or embedded commas.
func splitRow(line string, lineNo int, f Format) ([]string, error) {
	fields := strings.Split(strings.TrimRight(line, "\r"), ",")
	if len(fields) != 4 {
		return nil, &ParseError{Line: lineNo, Format: f, Field: "row",
			Reason: fmt.Sprintf("has %d fields, want 4", len(fields))}
	}
	for i := range fields {
		fields[i] = strings.TrimSpace(fields[i])
	}
	return fields, nil
}

// parseNative parses one arrival_us,tenant,workload,class row.
func parseNative(fields []string, lineNo int) (Entry, error) {
	us, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return Entry{}, &ParseError{Line: lineNo, Format: FormatNative, Field: "arrival_us",
			Reason: fmt.Sprintf("not an integer: %q", fields[0])}
	}
	if us < 0 {
		return Entry{}, &ParseError{Line: lineNo, Format: FormatNative, Field: "arrival_us",
			Reason: fmt.Sprintf("negative arrival %d", us)}
	}
	if us > int64(sim.MaxTime)/int64(sim.Microsecond) {
		return Entry{}, &ParseError{Line: lineNo, Format: FormatNative, Field: "arrival_us",
			Reason: fmt.Sprintf("arrival %d overflows the virtual clock", us)}
	}
	if fields[1] == "" {
		return Entry{}, &ParseError{Line: lineNo, Format: FormatNative, Field: "tenant", Reason: "empty"}
	}
	if fields[2] == "" {
		return Entry{}, &ParseError{Line: lineNo, Format: FormatNative, Field: "workload", Reason: "empty"}
	}
	class, ok := parseClass(fields[3])
	if !ok {
		return Entry{}, &ParseError{Line: lineNo, Format: FormatNative, Field: "class",
			Reason: fmt.Sprintf("unknown class %q (want interactive|normal|batch)", fields[3])}
	}
	return Entry{
		Arrival:  sim.Time(us) * sim.Microsecond,
		Tenant:   fields[1],
		Workload: fields[2],
		Class:    class,
	}, nil
}

// parseClass maps the native schema's class column (and its common
// aliases) onto a Class.
func parseClass(s string) (Class, bool) {
	switch strings.ToLower(s) {
	case "interactive", "high":
		return ClassInteractive, true
	case "normal", "default":
		return ClassNormal, true
	case "batch", "background", "low":
		return ClassBatch, true
	default:
		return 0, false
	}
}
