package main

import (
	"fmt"
	"math/rand"
	"strings"

	"ontoaccess/internal/workload"
)

// The fixture every workload starts from: the load generator's pool
// sizes (teams, publishers, publication types), then `authors`
// authors and as many publications, each publication linked to one
// author. Every value is drawn from the seed, so the client knows the
// expected answer of every read it sends.

const prologue = workload.Prologue

// seedBatch is the number of entities per seeding INSERT DATA.
const seedBatch = 100

var firstNames = []string{"Matthias", "Gerald", "Harald", "Chris", "Soeren", "Andy", "Orri", "Diego", "Arthur", "Umeshwar"}

const (
	minYear = 2000
	years   = 10
)

type author struct {
	first string
	team  int
}

type publication struct {
	year, pubType, publisher, author int
}

type fixture struct {
	teams, publishers, pubTypes int
	authors                     []author      // author i+1
	pubs                        []publication // pub i+1
	teamSize                    []int         // members of team t
	yearCount                   map[string]int
}

func newFixture(seed int64, n int) *fixture {
	pools := workload.NewGenerator(seed)
	f := &fixture{teams: pools.Teams, publishers: pools.Publishers, pubTypes: pools.PubTypes}
	rng := rand.New(rand.NewSource(seed))
	f.authors = make([]author, n)
	for i := range f.authors {
		f.authors[i] = author{first: firstNames[rng.Intn(len(firstNames))], team: rng.Intn(f.teams) + 1}
	}
	f.pubs = make([]publication, n)
	for i := range f.pubs {
		f.pubs[i] = publication{
			year:      minYear + rng.Intn(years),
			pubType:   rng.Intn(f.pubTypes) + 1,
			publisher: rng.Intn(f.publishers) + 1,
			author:    rng.Intn(n) + 1,
		}
	}
	f.teamSize = make([]int, f.teams+1)
	for _, a := range f.authors {
		f.teamSize[a.team]++
	}
	f.yearCount = map[string]int{}
	for _, p := range f.pubs {
		f.yearCount[fmt.Sprint(p.year)]++
	}
	return f
}

func familyName(id int) string { return fmt.Sprintf("L%07d", id) }
func teamName(t int) string    { return fmt.Sprintf("Team %d", t) }
func seedMbox(id int) string   { return fmt.Sprintf("mailto:a%d@example.org", id) }

func authorTriples(b *strings.Builder, id int, a author, mbox string) {
	fmt.Fprintf(b, "  ex:author%d foaf:title \"Dr\" ;\n      foaf:firstName %q ;\n      foaf:family_name %q ;\n      foaf:mbox <%s> ;\n      ont:team ex:team%d .\n",
		id, a.first, familyName(id), mbox, a.team)
}

func pubTriples(b *strings.Builder, id int, title string, p publication) {
	fmt.Fprintf(b, "  ex:pub%d dc:title %q ;\n      ont:pubYear \"%d\" ;\n      ont:pubType ex:pubtype%d ;\n      dc:publisher ex:publisher%d ;\n      dc:creator ex:author%d .\n",
		id, title, p.year, p.pubType, p.publisher, p.author)
}

func fixtureTitle(id int) string {
	return fmt.Sprintf("Updating relational data via SPARQL/Update: a mediation study, part %d", id)
}

// seedRequests returns the fixture as INSERT DATA requests: the pools
// in one request, then authors and publications seedBatch at a time.
func (f *fixture) seedRequests() []string {
	var out []string
	var b strings.Builder
	b.WriteString(prologue + "INSERT DATA {\n")
	for t := 1; t <= f.teams; t++ {
		fmt.Fprintf(&b, "  ex:team%d foaf:name %q ;\n      ont:teamCode \"T%d\" .\n", t, teamName(t), t)
	}
	for p := 1; p <= f.publishers; p++ {
		fmt.Fprintf(&b, "  ex:publisher%d ont:name \"Publisher %d\" .\n", p, p)
	}
	for p := 1; p <= f.pubTypes; p++ {
		fmt.Fprintf(&b, "  ex:pubtype%d ont:type \"type%d\" .\n", p, p)
	}
	b.WriteString("}\n")
	out = append(out, b.String())
	for lo := 0; lo < len(f.authors); lo += seedBatch {
		b.Reset()
		b.WriteString(prologue + "INSERT DATA {\n")
		for i := lo; i < lo+seedBatch && i < len(f.authors); i++ {
			authorTriples(&b, i+1, f.authors[i], seedMbox(i+1))
		}
		b.WriteString("}\n")
		out = append(out, b.String())
	}
	for lo := 0; lo < len(f.pubs); lo += seedBatch {
		b.Reset()
		b.WriteString(prologue + "INSERT DATA {\n")
		for i := lo; i < lo+seedBatch && i < len(f.pubs); i++ {
			pubTriples(&b, i+1, fixtureTitle(i+1), f.pubs[i])
		}
		b.WriteString("}\n")
		out = append(out, b.String())
	}
	return out
}

// model is the client's record of acknowledged writes. Each
// connection owns the authors whose id is congruent to its index
// modulo the connection count, so it alone writes their mailboxes and
// can check them exactly; entities it inserts get owned ids too.
type model struct {
	conn, conns int
	mbox        map[int]string // owned author -> mailbox; "" once deleted
	owned       []int
	nextID      int
	newAuthors  int // authors added by acknowledged inserts
	serial      int
}

func newModel(conn, conns, authors int) *model {
	m := &model{conn: conn, conns: conns, mbox: map[int]string{}}
	for id := 1; id <= authors; id++ {
		if id%conns == conn {
			m.mbox[id] = seedMbox(id)
			m.owned = append(m.owned, id)
		}
	}
	m.nextID = (authors/conns+1)*conns + conn
	return m
}

// newID returns a fresh owned entity id above the fixture's range.
func (m *model) newID() int {
	id := m.nextID
	m.nextID += m.conns
	return id
}
