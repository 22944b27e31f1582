package interp

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/minic"
)

// tokenReader provides both line-oriented (getline) and token-oriented
// (scanf) access over a single input stream, like C stdio.
type tokenReader struct {
	src io.Reader
	r   *bufio.Reader // created on the first read
	eof bool
}

// maxStdinBuf caps the read buffer. readLine gathers a longer line in
// scratch bytes, so no read depends on the buffer's size.
const maxStdinBuf = 64 << 10

// reader returns the buffered reader, creating it on the first read so a
// machine that never reads stdin (every simulated GPU thread) allocates no
// buffer. The buffer is sized to the input when the reader reports its
// length.
func (t *tokenReader) reader() *bufio.Reader {
	if t.r == nil {
		src := t.src
		if src == nil {
			src = strings.NewReader("")
		}
		size := maxStdinBuf
		if l, ok := src.(interface{ Len() int }); ok {
			size = min(size, l.Len())
		}
		t.r = bufio.NewReaderSize(src, size)
	}
	return t.r
}

// readLine returns the next line including its trailing newline (if
// present) and false at EOF. The line is valid until the next read: it
// is the reader's buffer, or, for a line that outgrows the buffer,
// *scratch, grown to hold it.
func (t *tokenReader) readLine(scratch *[]byte) ([]byte, bool) {
	if t.eof {
		return nil, false
	}
	r := t.reader()
	line, err := r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		b := append((*scratch)[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = r.ReadSlice('\n')
			b = append(b, line...)
		}
		*scratch, line = b, b
	}
	if err != nil {
		t.eof = true
		if len(line) == 0 {
			return nil, false
		}
	}
	return line, true
}

// readToken skips whitespace then appends a run of non-whitespace bytes
// to b.
func (t *tokenReader) readToken(b []byte) ([]byte, bool) {
	// Skip leading whitespace.
	for {
		c, err := t.reader().ReadByte()
		if err != nil {
			t.eof = true
			return b, false
		}
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			b = append(b, c)
			break
		}
	}
	for {
		c, err := t.reader().ReadByte()
		if err != nil {
			t.eof = true
			break
		}
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			_ = t.r.UnreadByte()
			break
		}
		b = append(b, c)
	}
	return b, true
}

func (t *tokenReader) readByte() (byte, bool) {
	c, err := t.reader().ReadByte()
	if err != nil {
		t.eof = true
		return 0, false
	}
	return c, true
}

// stdlib is the built-in C library. GPU intrinsics are installed separately
// via Options.Intrinsics by package gpurt.
var stdlib = map[string]Builtin{
	"getline": biGetline,
	"printf":  biPrintf,
	"scanf":   biScanf,
	"getchar": biGetchar,
	"putchar": biPutchar,

	"strcmp":  biStrcmp,
	"strncmp": biStrncmp,
	"strcpy":  biStrcpy,
	"strncpy": biStrncpy,
	"strlen":  biStrlen,
	"strstr":  biStrstr,
	"strcat":  biStrcat,
	"memset":  biMemset,
	"memcpy":  biMemcpy,

	"atoi":   biAtoi,
	"atof":   biAtof,
	"malloc": biMalloc,
	"calloc": biCalloc,
	"free":   biFree,
	"abs":    biAbs,
	"exit":   biExit,

	"isdigit": ctype(func(c byte) bool { return c >= '0' && c <= '9' }),
	"isalpha": ctype(func(c byte) bool { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }),
	"isalnum": ctype(func(c byte) bool {
		return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
	}),
	"isspace": ctype(func(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }),
	"tolower": mapChar(func(c byte) byte {
		if c >= 'A' && c <= 'Z' {
			return c + 32
		}
		return c
	}),
	"toupper": mapChar(func(c byte) byte {
		if c >= 'a' && c <= 'z' {
			return c - 32
		}
		return c
	}),

	"sqrt":  mathFn1(math.Sqrt),
	"fabs":  mathFn1(math.Abs),
	"exp":   mathFn1(math.Exp),
	"log":   mathFn1(math.Log),
	"log2":  mathFn1(math.Log2),
	"floor": mathFn1(math.Floor),
	"ceil":  mathFn1(math.Ceil),
	"erf":   mathFn1(math.Erf),
	"sin":   mathFn1(math.Sin),
	"cos":   mathFn1(math.Cos),
	"pow":   mathFn2(math.Pow),
	"fmin":  mathFn2(math.Min),
	"fmax":  mathFn2(math.Max),
}

// pureBuiltins is MiniC's one purity table: the builtins with no side
// effects and no error paths (a domain error gives NaN, never an
// interpreter error), each with its argument count and the one kind of
// value it returns. The optimizer may fold, share and hoist their calls.
var pureBuiltins = map[string]struct {
	args int
	kind ValKind
}{
	"sqrt": {1, ValFloat}, "fabs": {1, ValFloat}, "exp": {1, ValFloat}, "log": {1, ValFloat},
	"log2": {1, ValFloat}, "floor": {1, ValFloat}, "ceil": {1, ValFloat}, "erf": {1, ValFloat},
	"sin": {1, ValFloat}, "cos": {1, ValFloat},
	"pow": {2, ValFloat}, "fmin": {2, ValFloat}, "fmax": {2, ValFloat},
	"abs": {1, ValInt}, "isdigit": {1, ValInt}, "isalpha": {1, ValInt}, "isalnum": {1, ValInt},
	"isspace": {1, ValInt}, "tolower": {1, ValInt}, "toupper": {1, ValInt},
}

// PureKind reports whether the builtin name is pure, and the kind of value
// it returns.
func PureKind(name string) (ValKind, bool) {
	p, ok := pureBuiltins[name]
	return p.kind, ok
}

// pureMachine runs CallPure. A pure builtin touches its machine only to
// charge cost, which NopSink drops, so goroutines may share it.
var pureMachine = &Machine{cost: NopSink{}}

// CallPure calls the pure builtin name with the stdlib's own
// implementation. ok is false when name is not pure or args has the wrong
// length.
func CallPure(name string, args []Value) (Value, bool) {
	p, ok := pureBuiltins[name]
	if !ok || len(args) != p.args {
		return Value{}, false
	}
	v, err := stdlib[name](pureMachine, args)
	return v, err == nil
}

func mathFn1(f func(float64) float64) Builtin {
	return func(m *Machine, args []Value) (Value, error) {
		m.cost.Op(8) // transcendental/FP-heavy op
		return FloatVal(f(args[0].AsFloat())), nil
	}
}

func mathFn2(f func(a, b float64) float64) Builtin {
	return func(m *Machine, args []Value) (Value, error) {
		m.cost.Op(8)
		return FloatVal(f(args[0].AsFloat(), args[1].AsFloat())), nil
	}
}

func ctype(pred func(byte) bool) Builtin {
	return func(m *Machine, args []Value) (Value, error) {
		if pred(byte(args[0].AsInt())) {
			return IntVal(1), nil
		}
		return IntVal(0), nil
	}
}

func mapChar(f func(byte) byte) Builtin {
	return func(m *Machine, args []Value) (Value, error) {
		return IntVal(int64(f(byte(args[0].AsInt())))), nil
	}
}

// biGetline implements POSIX getline(&line, &n, stdin): reads one line
// (with trailing newline) into *line, growing the buffer if needed, and
// returns the byte count or -1 at EOF.
func biGetline(m *Machine, args []Value) (Value, error) {
	if len(args) != 3 {
		return Value{}, fmt.Errorf("interp: getline needs 3 args")
	}
	linePP := args[0]
	sizeP := args[1]
	if linePP.Kind != ValPtr || !linePP.P.InBounds() {
		return Value{}, fmt.Errorf("interp: getline: bad line pointer")
	}
	std := m.stdio()
	line, ok := std.in.readLine(&std.buf)
	if !ok {
		return IntVal(-1), nil
	}
	buf := linePP.P.Obj.Cells[linePP.P.Off]
	need := len(line) + 1
	var target Pointer
	if buf.Kind == ValPtr && !buf.P.IsNull() && buf.P.Off >= 0 && len(buf.P.Obj.Cells)-buf.P.Off >= need {
		target = buf.P
	} else {
		obj := NewObject("getline-buf", minic.CharType, need, m.space)
		target = Pointer{Obj: obj}
		linePP.P.Obj.Cells[linePP.P.Off] = PtrVal(target)
		if sizeP.Kind == ValPtr && sizeP.P.InBounds() {
			sizeP.P.Obj.Cells[sizeP.P.Off] = IntVal(int64(need))
		}
	}
	writeC(target, line)
	m.cost.Op(len(line))                   // per-byte copy work
	m.cost.Load(SpaceRAM, len(line))       // stream read
	m.cost.Store(target.Obj.Space, need-1) // buffer fill
	return IntVal(int64(len(line))), nil
}

// biPrintf implements a C printf subset: %d %ld %c %s %f %lf %g %e %x %%
// with optional width/precision on floats (%.3f).
func biPrintf(m *Machine, args []Value) (Value, error) {
	if len(args) == 0 || args[0].Kind != ValPtr {
		return Value{}, fmt.Errorf("interp: printf: missing format")
	}
	std := m.stdio()
	std.fmt = appendCString(std.fmt[:0], args[0].P)
	out, err := appendFormat(std.buf[:0], std.fmt, args[1:])
	std.buf = out
	if err != nil {
		return Value{}, err
	}
	if m.stdout != nil {
		if _, err := m.stdout.Write(out); err != nil {
			return Value{}, err
		}
	}
	m.cost.Op(len(out))
	m.cost.Store(SpaceRAM, len(out))
	return IntVal(int64(len(out))), nil
}

// appendFormat appends printf's output for format and args to b.
func appendFormat(b, format []byte, args []Value) ([]byte, error) {
	ai := 0
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c != '%' {
			b = append(b, c)
			continue
		}
		i++
		if i >= len(format) {
			return b, fmt.Errorf("interp: printf: dangling %% in %q", format)
		}
		// Parse %[flags][width][.prec][length]verb
		for i < len(format) && (format[i] == '-' || format[i] == '+' || format[i] == '0' || format[i] == ' ') {
			i++
		}
		for i < len(format) && format[i] >= '0' && format[i] <= '9' {
			i++
		}
		prec := -1
		if i < len(format) && format[i] == '.' {
			i++
			p := 0
			for i < len(format) && format[i] >= '0' && format[i] <= '9' {
				p = p*10 + int(format[i]-'0')
				i++
			}
			prec = p
		}
		for i < len(format) && (format[i] == 'l' || format[i] == 'h' || format[i] == 'z') {
			i++
		}
		if i >= len(format) {
			return b, fmt.Errorf("interp: printf: truncated verb in %q", format)
		}
		verb := format[i]
		if verb == '%' {
			b = append(b, '%')
			continue
		}
		if !strings.ContainsRune("diuxcsfeg", rune(verb)) {
			return b, fmt.Errorf("interp: printf: unsupported verb %%%c", verb)
		}
		if ai >= len(args) {
			return b, fmt.Errorf("interp: printf: not enough arguments for format %q", format)
		}
		v := args[ai]
		ai++
		switch verb {
		case 'd', 'i', 'u':
			b = strconv.AppendInt(b, v.AsInt(), 10)
		case 'x':
			b = strconv.AppendInt(b, v.AsInt(), 16)
		case 'c':
			b = append(b, byte(v.AsInt()))
		case 's':
			if v.Kind != ValPtr {
				return b, fmt.Errorf("interp: printf: %%s argument is not a string")
			}
			b = appendCString(b, v.P)
		case 'f', 'e':
			if prec < 0 {
				prec = 6
			}
			b = strconv.AppendFloat(b, v.AsFloat(), verb, prec, 64)
		case 'g':
			b = strconv.AppendFloat(b, v.AsFloat(), 'g', 12, 64)
		}
	}
	return b, nil
}

// biScanf implements a scanf subset: %s %d %ld %f %lf %c tokens separated
// by whitespace in the format are treated as "skip whitespace". Returns
// the number of conversions performed, or -1 on immediate EOF.
func biScanf(m *Machine, args []Value) (Value, error) {
	if len(args) == 0 || args[0].Kind != ValPtr {
		return Value{}, fmt.Errorf("interp: scanf: missing format")
	}
	std := m.stdio()
	std.fmt = appendCString(std.fmt[:0], args[0].P)
	format := std.fmt
	ai := 1
	assigned := 0
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c == ' ' || c == '\t' || c == '\n' {
			continue
		}
		if c != '%' {
			// Literal match: consume the byte if it is next (best-effort).
			continue
		}
		i++
		for i < len(format) && (format[i] == 'l' || format[i] == 'h') {
			i++
		}
		if i >= len(format) {
			return Value{}, fmt.Errorf("interp: scanf: truncated verb in %q", format)
		}
		if ai >= len(args) {
			return Value{}, fmt.Errorf("interp: scanf: not enough arguments for %q", format)
		}
		dst := args[ai]
		ai++
		if dst.Kind != ValPtr || !dst.P.InBounds() {
			return Value{}, fmt.Errorf("interp: scanf: destination is not a valid pointer")
		}
		switch format[i] {
		case 's':
			tok, ok := std.in.readToken(std.buf[:0])
			std.buf = tok
			if !ok {
				return scanfResult(assigned), nil
			}
			writeC(dst.P, tok)
			m.cost.Op(len(tok))
			m.cost.Load(SpaceRAM, len(tok))
			assigned++
		case 'd', 'i', 'u':
			tok, ok := std.in.readToken(std.buf[:0])
			std.buf = tok
			if !ok {
				return scanfResult(assigned), nil
			}
			n, err := strconv.ParseInt(string(bytes.TrimSpace(tok)), 10, 64)
			if err != nil {
				return scanfResult(assigned), nil
			}
			dst.P.Obj.Cells[dst.P.Off] = convertFor(dst.P.Obj.Elem, IntVal(n))
			m.cost.Op(len(tok))
			assigned++
		case 'f', 'g', 'e':
			tok, ok := std.in.readToken(std.buf[:0])
			std.buf = tok
			if !ok {
				return scanfResult(assigned), nil
			}
			f, err := strconv.ParseFloat(string(bytes.TrimSpace(tok)), 64)
			if err != nil {
				return scanfResult(assigned), nil
			}
			dst.P.Obj.Cells[dst.P.Off] = convertFor(dst.P.Obj.Elem, FloatVal(f))
			m.cost.Op(len(tok))
			assigned++
		case 'c':
			b, ok := std.in.readByte()
			if !ok {
				return scanfResult(assigned), nil
			}
			dst.P.Obj.Cells[dst.P.Off] = IntVal(int64(b))
			assigned++
		default:
			return Value{}, fmt.Errorf("interp: scanf: unsupported verb %%%c", format[i])
		}
	}
	return scanfResult(assigned), nil
}

func scanfResult(assigned int) Value {
	if assigned == 0 {
		return IntVal(-1) // EOF
	}
	return IntVal(int64(assigned))
}

func biGetchar(m *Machine, args []Value) (Value, error) {
	b, ok := m.stdio().in.readByte()
	if !ok {
		return IntVal(-1), nil
	}
	return IntVal(int64(b)), nil
}

func biPutchar(m *Machine, args []Value) (Value, error) {
	if m.stdout != nil {
		if _, err := m.stdout.Write([]byte{byte(args[0].AsInt())}); err != nil {
			return Value{}, err
		}
	}
	return args[0], nil
}

func ptrArg(args []Value, i int, fn string) (Pointer, error) {
	if i >= len(args) || args[i].Kind != ValPtr || args[i].P.IsNull() || args[i].P.Off < 0 {
		return Pointer{}, fmt.Errorf("interp: %s: argument %d is not a valid pointer", fn, i)
	}
	return args[i].P, nil
}

func biStrcmp(m *Machine, args []Value) (Value, error) {
	a, err := ptrArg(args, 0, "strcmp")
	if err != nil {
		return Value{}, err
	}
	b, err := ptrArg(args, 1, "strcmp")
	if err != nil {
		return Value{}, err
	}
	return strcmpCore(m, a, b, -1)
}

func biStrncmp(m *Machine, args []Value) (Value, error) {
	a, err := ptrArg(args, 0, "strncmp")
	if err != nil {
		return Value{}, err
	}
	b, err := ptrArg(args, 1, "strncmp")
	if err != nil {
		return Value{}, err
	}
	return strcmpCore(m, a, b, int(args[2].AsInt()))
}

func strcmpCore(m *Machine, a, b Pointer, n int) (Value, error) {
	i := 0
	for {
		if n >= 0 && i >= n {
			return IntVal(0), nil
		}
		var ca, cb byte
		if a.Off+i < len(a.Obj.Cells) {
			ca = byte(a.Obj.Cells[a.Off+i].AsInt())
		}
		if b.Off+i < len(b.Obj.Cells) {
			cb = byte(b.Obj.Cells[b.Off+i].AsInt())
		}
		m.cost.Op(1)
		m.cost.Load(a.Obj.Space, 1)
		m.cost.Load(b.Obj.Space, 1)
		if ca != cb {
			return IntVal(int64(ca) - int64(cb)), nil
		}
		if ca == 0 {
			return IntVal(0), nil
		}
		i++
	}
}

// scratchCString reads the NUL-terminated string at p into the machine's
// scratch bytes, which the next stdio or string builtin reuses.
func (m *Machine) scratchCString(p Pointer) []byte {
	std := m.stdio()
	std.buf = appendCString(std.buf[:0], p)
	return std.buf
}

func biStrcpy(m *Machine, args []Value) (Value, error) {
	dst, err := ptrArg(args, 0, "strcpy")
	if err != nil {
		return Value{}, err
	}
	src, err := ptrArg(args, 1, "strcpy")
	if err != nil {
		return Value{}, err
	}
	s := m.scratchCString(src)
	writeC(dst, s)
	m.cost.Op(len(s))
	m.cost.Load(src.Obj.Space, len(s)+1)
	m.cost.Store(dst.Obj.Space, len(s)+1)
	return args[0], nil
}

func biStrncpy(m *Machine, args []Value) (Value, error) {
	dst, err := ptrArg(args, 0, "strncpy")
	if err != nil {
		return Value{}, err
	}
	src, err := ptrArg(args, 1, "strncpy")
	if err != nil {
		return Value{}, err
	}
	n, err := countArg(args, 2, "strncpy")
	if err != nil {
		return Value{}, err
	}
	s := m.scratchCString(src)
	if len(s) > n {
		s = s[:n]
	}
	writeC(dst, s)
	m.cost.Op(n)
	m.cost.Load(src.Obj.Space, n)
	m.cost.Store(dst.Obj.Space, n)
	return args[0], nil
}

func biStrlen(m *Machine, args []Value) (Value, error) {
	p, err := ptrArg(args, 0, "strlen")
	if err != nil {
		return Value{}, err
	}
	n := cstrlen(p)
	m.cost.Op(n)
	m.cost.Load(p.Obj.Space, n+1)
	return IntVal(int64(n)), nil
}

func biStrstr(m *Machine, args []Value) (Value, error) {
	hay, err := ptrArg(args, 0, "strstr")
	if err != nil {
		return Value{}, err
	}
	needle, err := ptrArg(args, 1, "strstr")
	if err != nil {
		return Value{}, err
	}
	std := m.stdio()
	h := appendCString(std.buf[:0], hay)
	std.buf = appendCString(h, needle)
	h, n := std.buf[:len(h)], std.buf[len(h):]
	m.cost.Op(len(h) + len(n))
	m.cost.Load(hay.Obj.Space, len(h))
	m.cost.Load(needle.Obj.Space, len(n))
	idx := bytes.Index(h, n)
	if idx < 0 {
		return PtrVal(Pointer{}), nil
	}
	return PtrVal(Pointer{Obj: hay.Obj, Off: hay.Off + idx}), nil
}

func biStrcat(m *Machine, args []Value) (Value, error) {
	dst, err := ptrArg(args, 0, "strcat")
	if err != nil {
		return Value{}, err
	}
	src, err := ptrArg(args, 1, "strcat")
	if err != nil {
		return Value{}, err
	}
	d := cstrlen(dst)
	s := m.scratchCString(src)
	writeC(Pointer{Obj: dst.Obj, Off: dst.Off + d}, s)
	m.cost.Op(len(s))
	return args[0], nil
}

func biMemset(m *Machine, args []Value) (Value, error) {
	p, err := ptrArg(args, 0, "memset")
	if err != nil {
		return Value{}, err
	}
	v := byte(args[1].AsInt())
	n, err := countArg(args, 2, "memset")
	if err != nil {
		return Value{}, err
	}
	for i := 0; i < n && p.Off+i < len(p.Obj.Cells); i++ {
		p.Obj.Cells[p.Off+i] = IntVal(int64(v))
	}
	m.cost.Op(n)
	m.cost.Store(p.Obj.Space, n)
	return args[0], nil
}

func biMemcpy(m *Machine, args []Value) (Value, error) {
	dst, err := ptrArg(args, 0, "memcpy")
	if err != nil {
		return Value{}, err
	}
	src, err := ptrArg(args, 1, "memcpy")
	if err != nil {
		return Value{}, err
	}
	n, err := countArg(args, 2, "memcpy")
	if err != nil {
		return Value{}, err
	}
	for i := 0; i < n; i++ {
		if dst.Off+i >= len(dst.Obj.Cells) || src.Off+i >= len(src.Obj.Cells) {
			break
		}
		dst.Obj.Cells[dst.Off+i] = src.Obj.Cells[src.Off+i]
	}
	m.cost.Op(n)
	m.cost.Load(src.Obj.Space, n)
	m.cost.Store(dst.Obj.Space, n)
	return args[0], nil
}

// countArg reads the byte count args[i] of a memory builtin. A negative
// count, which C would take as a huge size_t, is a runtime error.
func countArg(args []Value, i int, name string) (int, error) {
	n := int(args[i].AsInt())
	if n < 0 {
		return 0, fmt.Errorf("interp: %s of negative count %d", name, n)
	}
	return n, nil
}

// charAt reads the byte at p+i, or 0 past the object's end.
func charAt(p Pointer, i int) byte {
	off := p.Off + i
	if off < 0 || off >= len(p.Obj.Cells) {
		return 0
	}
	return byte(p.Obj.Cells[off].AsInt())
}

// biAtoi parses incrementally like C atoi: it touches only the bytes of
// the number itself, never scanning for a terminator (the input buffer on
// the GPU has no NUL until its very end).
func biAtoi(m *Machine, args []Value) (Value, error) {
	p, err := ptrArg(args, 0, "atoi")
	if err != nil {
		return Value{}, err
	}
	i := 0
	for c := charAt(p, i); c == ' ' || c == '\t' || c == '\n' || c == '\r'; c = charAt(p, i) {
		i++
	}
	neg := false
	if c := charAt(p, i); c == '-' || c == '+' {
		neg = c == '-'
		i++
	}
	var n int64
	digits := 0
	for {
		c := charAt(p, i)
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int64(c-'0')
		i++
		digits++
	}
	m.cost.Op(i + 2)
	m.cost.Load(p.Obj.Space, i+1)
	if neg {
		n = -n
	}
	_ = digits
	return IntVal(n), nil
}

// biAtof parses incrementally like C atof (no exponent scanning past the
// mantissa unless present), touching only the number's bytes.
func biAtof(m *Machine, args []Value) (Value, error) {
	p, err := ptrArg(args, 0, "atof")
	if err != nil {
		return Value{}, err
	}
	i := 0
	for c := charAt(p, i); c == ' ' || c == '\t' || c == '\n' || c == '\r'; c = charAt(p, i) {
		i++
	}
	start := i
	var b strings.Builder
	if c := charAt(p, i); c == '-' || c == '+' {
		b.WriteByte(c)
		i++
	}
	seenDot, seenExp := false, false
	for {
		c := charAt(p, i)
		switch {
		case c >= '0' && c <= '9':
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
		case (c == 'e' || c == 'E') && !seenExp && i > start:
			next := charAt(p, i+1)
			if next != '-' && next != '+' && (next < '0' || next > '9') {
				c = 0
			} else {
				seenExp = true
			}
		case (c == '-' || c == '+') && i > start && (charAt(p, i-1) == 'e' || charAt(p, i-1) == 'E'):
		default:
			c = 0
		}
		if c == 0 {
			break
		}
		b.WriteByte(c)
		i++
	}
	m.cost.Op(i - start + 4)
	m.cost.Load(p.Obj.Space, i-start+1)
	f, _ := strconv.ParseFloat(b.String(), 64)
	return FloatVal(f), nil
}

func biMalloc(m *Machine, args []Value) (Value, error) {
	n := int(args[0].AsInt())
	if n < 0 {
		return Value{}, fmt.Errorf("interp: malloc of negative size %d", n)
	}
	if n == 0 {
		n = 1
	}
	obj := NewObject("malloc", minic.CharType, n, m.space)
	m.cost.Op(4)
	return PtrVal(Pointer{Obj: obj}), nil
}

func biCalloc(m *Machine, args []Value) (Value, error) {
	n := int(args[0].AsInt() * args[1].AsInt())
	if n <= 0 {
		n = 1
	}
	obj := NewObject("calloc", minic.CharType, n, m.space)
	m.cost.Op(4 + n/8)
	return PtrVal(Pointer{Obj: obj}), nil
}

func biFree(m *Machine, args []Value) (Value, error) {
	// Garbage collected; free is a no-op but validates its argument kind.
	if args[0].Kind != ValPtr {
		return Value{}, fmt.Errorf("interp: free of non-pointer")
	}
	return Value{}, nil
}

func biAbs(m *Machine, args []Value) (Value, error) {
	v := args[0].AsInt()
	if v < 0 {
		v = -v
	}
	return IntVal(v), nil
}

func biExit(m *Machine, args []Value) (Value, error) {
	return Value{}, errExit{code: int(args[0].AsInt())}
}
