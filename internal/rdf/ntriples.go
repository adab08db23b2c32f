package rdf

import (
	"bufio"
	"fmt"
	"io"
	"net/url"
	"strconv"
	"strings"
)

// N-Triples-style serialization. The dialect is standard line-oriented
// `<subject> <predicate> object .` with two departures needed for
// round-trip fidelity:
//
//   - node IRIs carry the node id, kind and escaped label
//     (`<e/42/barack%20obama>`), because entity surface forms are
//     deliberately ambiguous and the id is what keeps two "springfield"s
//     apart across a save/load cycle;
//   - literals are plain quoted strings and are re-interned on load.
//
// Nodes that participate in no triple are not serialized; every generated
// knowledge base gives each entity at least a name fact, so nothing is
// lost in practice.

// WriteNTriples serializes every triple of g in scan order; two stores
// holding the same world serialize byte-identically, whatever their shard
// layout.
func WriteNTriples(g *ShardedStore, w io.Writer) error {
	bw := bufio.NewWriter(w)
	var err error
	g.Triples(func(t Triple) {
		if err != nil {
			return
		}
		_, err = fmt.Fprintf(bw, "%s <%s> %s .\n",
			nodeRef(g, t.S), escapeIRI(g.PredName(t.P)), objectRef(g, t.O))
	})
	if err != nil {
		return fmt.Errorf("rdf: write ntriples: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("rdf: write ntriples: %w", err)
	}
	return nil
}

func nodeRef(g *ShardedStore, id ID) string {
	kind := "e"
	if g.KindOf(id) == KindMediator {
		kind = "m"
	}
	return fmt.Sprintf("<%s/%d/%s>", kind, id, escapeIRI(g.Label(id)))
}

func objectRef(g *ShardedStore, id ID) string {
	if g.KindOf(id) == KindLiteral {
		return fmt.Sprintf("%q", g.Label(id))
	}
	return nodeRef(g, id)
}

func escapeIRI(label string) string { return url.PathEscape(label) }

// LoadNTriples parses a serialization produced by WriteNTriples into a new
// ShardedStore with the given shard count (n <= 0 selects DefaultShards()).
// Node identity (including deliberate label ambiguity) is preserved; fresh
// ids are assigned. Interning is a single sequential pass over the input;
// the per-shard indexes are then built in parallel, one worker per shard,
// which is where the bulk-load time goes.
func LoadNTriples(r io.Reader, shards int) (*ShardedStore, error) {
	ss := NewShardedStore(shards)
	var batch []Triple
	err := readNTriples(r, &ss.symtab, func(subj ID, pred PID, obj ID) {
		batch = append(batch, Triple{S: subj, P: pred, O: obj})
	})
	if err != nil {
		return nil, err
	}
	ss.AddBatch(batch)
	return ss, nil
}

// readNTriples is the shared line parser: it interns nodes and predicates
// into st and hands each parsed triple to add.
func readNTriples(r io.Reader, st *symtab, add func(ID, PID, ID)) error {
	nodes := make(map[string]ID) // old "kind/id" -> new id
	// Lines are read with ReadString rather than a bufio.Scanner: a Scanner
	// caps the token size, so one sufficiently long label (the IRI escape can
	// multiply a label's length several-fold) would fail the whole load with
	// an opaque "token too long". ReadString grows to the longest single line
	// and nothing else.
	br := bufio.NewReaderSize(r, 1<<16)
	lineNo := 0
	for {
		raw, readErr := br.ReadString('\n')
		if readErr != nil && readErr != io.EOF {
			return fmt.Errorf("rdf: line %d: read ntriples: %w", lineNo+1, readErr)
		}
		if raw != "" {
			lineNo++
			if err := st.parseNTLine(nodes, raw, add); err != nil {
				return fmt.Errorf("rdf: line %d: %w", lineNo, err)
			}
		}
		if readErr == io.EOF {
			return nil
		}
	}
}

// parseNTLine parses one serialized line (blank and #-comment lines are
// no-ops), interning nodes and predicates and emitting the triple via add.
func (st *symtab) parseNTLine(nodes map[string]ID, raw string, add func(ID, PID, ID)) error {
	line := strings.TrimSpace(raw)
	if line == "" || strings.HasPrefix(line, "#") {
		return nil
	}
	subj, rest, ok := cutToken(line)
	if !ok {
		return fmt.Errorf("missing subject")
	}
	pred, rest, ok := cutToken(rest)
	if !ok {
		return fmt.Errorf("missing predicate")
	}
	obj := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "."))

	sID, err := st.resolveNode(nodes, subj)
	if err != nil {
		return err
	}
	pName, err := parseIRI(pred)
	if err != nil {
		return err
	}
	var oID ID
	if strings.HasPrefix(obj, `"`) {
		lit, err := unquote(obj)
		if err != nil {
			return err
		}
		oID = st.Literal(lit)
	} else {
		oID, err = st.resolveNode(nodes, obj)
		if err != nil {
			return err
		}
	}
	add(sID, st.Pred(pName), oID)
	return nil
}

// resolveNode maps a `<kind/id/label>` reference to a node in the new
// store, creating it on first sight. The body is split before any
// unescaping — the label segment is percent-escaped exactly once on write,
// so unescaping the whole body first (as parseIRI does for predicates)
// would both misparse labels containing "/" and double-unescape "%".
func (s *symtab) resolveNode(nodes map[string]ID, ref string) (ID, error) {
	if !strings.HasPrefix(ref, "<") || !strings.HasSuffix(ref, ">") {
		return 0, fmt.Errorf("expected <...>, got %q", ref)
	}
	parts := strings.SplitN(ref[1:len(ref)-1], "/", 3)
	if len(parts) != 3 {
		return 0, fmt.Errorf("malformed node reference %q", ref)
	}
	if _, err := strconv.ParseUint(parts[1], 10, 32); err != nil {
		return 0, fmt.Errorf("malformed node id in %q", ref)
	}
	key := parts[0] + "/" + parts[1]
	if id, ok := nodes[key]; ok {
		return id, nil
	}
	label, err := url.PathUnescape(parts[2])
	if err != nil {
		return 0, fmt.Errorf("bad label escaping in %q: %w", ref, err)
	}
	var id ID
	switch parts[0] {
	case "e":
		id = s.NewAmbiguousEntity(label)
	case "m":
		id = s.Mediator(label)
	default:
		return 0, fmt.Errorf("unknown node kind %q in %q", parts[0], ref)
	}
	nodes[key] = id
	return id, nil
}

func parseIRI(tok string) (string, error) {
	if !strings.HasPrefix(tok, "<") || !strings.HasSuffix(tok, ">") {
		return "", fmt.Errorf("expected <...>, got %q", tok)
	}
	body, err := url.PathUnescape(tok[1 : len(tok)-1])
	if err != nil {
		return "", fmt.Errorf("bad IRI escaping in %q: %w", tok, err)
	}
	return body, nil
}

// unquote reverses objectRef's %q literal encoding. %q emits full Go
// string-literal syntax — \n, \t, \r, \xNN and \uNNNN escapes, not just
// \" and \\ — so the inverse must be strconv.Unquote; anything hand-rolled
// corrupts literals containing control characters or non-UTF-8 bytes.
func unquote(tok string) (string, error) {
	if len(tok) < 2 || tok[0] != '"' {
		return "", fmt.Errorf("malformed literal %q", tok)
	}
	lit, err := strconv.Unquote(tok)
	if err != nil {
		return "", fmt.Errorf("malformed literal %q: %w", tok, err)
	}
	return lit, nil
}

// cutToken splits off the first whitespace-delimited token, honouring that
// IRIs contain no spaces (labels are escaped) and literals are last on the
// line.
func cutToken(line string) (tok, rest string, ok bool) {
	line = strings.TrimSpace(line)
	i := strings.IndexByte(line, ' ')
	if i < 0 {
		return "", "", false
	}
	return line[:i], line[i+1:], true
}
