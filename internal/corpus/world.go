// Package corpus implements the synthetic world model and text generators
// that substitute for the paper's external data: the Wikipedia background
// corpus (C), the evaluation datasets (DEFIE-Wikipedia, News, Wikia), the
// news sources retrieved at query time, and the GoogleTrendsQuestions QA
// benchmark (§2.2, §7).
//
// The world is a closed universe of entities and ground-truth facts from
// which all text is generated by templates. Because the generator records
// which facts each sentence expresses, evaluation can use an exact oracle
// in place of the paper's human assessors. All generation is deterministic
// given the configuration seed.
package corpus

import (
	"fmt"
	"math/rand"
	"strings"

	"qkbfly/internal/kb/entityrepo"
	"qkbfly/internal/kb/patterns"
	"qkbfly/internal/nlp"
)

// Arg is one argument of a world fact: an entity reference or a literal.
type Arg struct {
	EntityID string // "" for literals
	Literal  string // surface literal, e.g. "$100,000"
	Time     string // normalized time value, e.g. "2016-09-19"
}

// IsEntity reports whether the argument references an entity.
func (a Arg) IsEntity() bool { return a.EntityID != "" }

// EntityArg returns an entity argument.
func EntityArg(id string) Arg { return Arg{EntityID: id} }

// LiteralArg returns a literal argument.
func LiteralArg(s string) Arg { return Arg{Literal: s} }

// TimeArg returns a time argument.
func TimeArg(norm, surface string) Arg { return Arg{Literal: surface, Time: norm} }

// Fact is one ground-truth fact of the world.
type Fact struct {
	ID       int
	Subject  string // entity ID
	Relation string // canonical relation (synset ID)
	Objects  []Arg
	EventID  int // -1 for background facts; otherwise the emerging event
}

// Entity is a world entity.
type Entity struct {
	ID         string
	Name       string
	Type       string // fine-grained type
	Gender     nlp.Gender
	Aliases    []string
	Emerging   bool    // absent from the entity repository
	Prominence float64 // sampling weight for mentions and anchors
	Country    string  // for locations and nationality phrasing
	HomeCity   string  // for persons/organizations
}

// CoarseNER returns the coarse NER type of the entity.
func (e *Entity) CoarseNER() nlp.NERType {
	return entityrepo.CoarseType([]string{e.Type})
}

// Event is an emerging event used for the news dataset and QA benchmark.
type Event struct {
	ID       int
	Kind     string // "divorce", "award", "transfer", "attack", ...
	Title    string
	Date     string // normalized
	DateText string // surface form
	FactIDs  []int
	Headline int      // fact ID of the "made headlines" lead fact (-1 none)
	Queries  []string // entity names a journalist would query
}

// World is the closed universe everything is generated from. It is
// immutable once NewWorld returns: Entities, Order and Facts are fixed
// then, the fact index below is built from them, and the generators read
// one World from many goroutines at once.
type World struct {
	Config   Config
	Entities map[string]*Entity
	Order    []string // entity IDs in creation order
	Facts    []Fact
	Events   []Event
	Episodes []Episode        // pre-generated Wikia-style episode fact groups
	Repo     *entityrepo.Repo // background repository (non-emerging only)
	Patterns *patterns.Repo

	rng     *rand.Rand
	usedIDs map[string]int

	// The fact index, built by indexFacts: fact indices by subject and
	// event-fact indices by object entity, each ascending, and every
	// entity's position in Order.
	bySubject      map[string][]int
	eventsByObject map[string][]int
	orderPos       map[string]int
}

// Config controls world size. Zero values are replaced by defaults.
type Config struct {
	Seed         int64
	People       int // background persons across professions
	Cities       int
	Clubs        int
	Bands        int
	Companies    int
	Universities int
	Charities    int
	Parties      int
	Films        int
	Albums       int
	Series       int
	Awards       int
	Events       int // emerging events
	// WikiaPages is the number of fiction episode pages (Table 6's Wikia
	// dataset; the paper used 10).
	WikiaPages int
	// AmbiguityRate is the fraction of cities that share their name with a
	// football club (the Liverpool-vs-Liverpool-F.C. ambiguity of §7.1).
	AmbiguityRate float64
}

// DefaultConfig is the medium-size world used by the experiments.
func DefaultConfig() Config {
	return Config{
		Seed: 1, People: 220, Cities: 40, Clubs: 18, Bands: 16,
		Companies: 24, Universities: 12, Charities: 10, Parties: 8,
		Films: 40, Albums: 30, Series: 8, Awards: 14, Events: 50,
		WikiaPages: 10, AmbiguityRate: 0.3,
	}
}

// SmallConfig is a small world for unit tests.
func SmallConfig() Config {
	return Config{
		Seed: 7, People: 40, Cities: 10, Clubs: 5, Bands: 4,
		Companies: 6, Universities: 4, Charities: 3, Parties: 3,
		Films: 10, Albums: 8, Series: 3, Awards: 5, Events: 10,
		WikiaPages: 4, AmbiguityRate: 0.3,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.People == 0 {
		c.People = d.People
	}
	if c.Cities == 0 {
		c.Cities = d.Cities
	}
	if c.Clubs == 0 {
		c.Clubs = d.Clubs
	}
	if c.Bands == 0 {
		c.Bands = d.Bands
	}
	if c.Companies == 0 {
		c.Companies = d.Companies
	}
	if c.Universities == 0 {
		c.Universities = d.Universities
	}
	if c.Charities == 0 {
		c.Charities = d.Charities
	}
	if c.Parties == 0 {
		c.Parties = d.Parties
	}
	if c.Films == 0 {
		c.Films = d.Films
	}
	if c.Albums == 0 {
		c.Albums = d.Albums
	}
	if c.Series == 0 {
		c.Series = d.Series
	}
	if c.Awards == 0 {
		c.Awards = d.Awards
	}
	if c.Events == 0 {
		c.Events = d.Events
	}
	if c.WikiaPages == 0 {
		c.WikiaPages = d.WikiaPages
	}
	if c.AmbiguityRate == 0 {
		c.AmbiguityRate = d.AmbiguityRate
	}
	return c
}

// name pools (invented, so they never collide with the POS lexicon)
var (
	maleFirst = []string{
		"Adrien", "Bennet", "Caspar", "Darius", "Elliot", "Farid", "Gideon",
		"Hamish", "Imre", "Jasper", "Kelvin", "Lionel", "Marcus", "Nolan",
		"Osric", "Pavel", "Quentin", "Rowan", "Stellan", "Tobias", "Ulric",
		"Viggo", "Wendell", "Xavier", "Yusuf", "Zoltan", "Alaric", "Brendan",
		"Cormac", "Declan", "Emil", "Florian", "Gregor", "Hugo", "Ivor",
	}
	femaleFirst = []string{
		"Amara", "Beatrix", "Celine", "Daphne", "Elodie", "Freya", "Greta",
		"Helena", "Ingrid", "Jolene", "Katya", "Liora", "Maeve", "Nadia",
		"Odette", "Petra", "Quinn", "Rosalind", "Saskia", "Thea", "Uma",
		"Verena", "Willa", "Xenia", "Yvaine", "Zelda", "Anouk", "Bianca",
		"Clara", "Delphine", "Esme", "Fiona", "Gwendolyn", "Hazel", "Iris",
	}
	surnames = []string{
		"Ashcombe", "Barlowe", "Calloway", "Draycott", "Ellerton", "Fairbanks",
		"Garrick", "Hollis", "Ibsenfeld", "Jarvis", "Kestrel", "Lockwood",
		"Marchbanks", "Norcross", "Okonkwo", "Pemberton", "Quillfeather",
		"Ravenscroft", "Silvermane", "Thorncastle", "Underhill", "Vexley",
		"Whitlock", "Yardley", "Zeller", "Abernathy", "Blackwood", "Crane",
		"Dunmore", "Eastgate", "Fenwick", "Grimsby", "Harrow", "Irondale",
		"Juneau", "Kirkwall", "Lanphier", "Mortlake", "Nightingale", "Orwell",
	}
	cityParts1 = []string{
		"Wes", "Nor", "Kar", "Bel", "Dor", "Fal", "Gris", "Hale", "Ister",
		"Jor", "Kel", "Lund", "Mar", "Nev", "Ost", "Por", "Quil", "Ros",
		"Sil", "Tor", "Ulm", "Vel", "Wick", "Yar", "Zel",
	}
	cityParts2 = []string{
		"ton", "mouth", "stead", "vale", "burg", "ford", "haven", "wick",
		"minster", "field", "bridge", "holm", "gate", "port", "cliff",
	}
	countryNames = []string{
		"Valdoria", "Kestrovia", "Ambrellia", "Norvania", "Tessaly",
		"Ostrengard", "Quillmark", "Zephyria", "Brelandia", "Corvenna",
	}
	nationalities = map[string]string{
		"Valdoria": "Valdorian", "Kestrovia": "Kestrovian",
		"Ambrellia": "Ambrellian", "Norvania": "Norvanian",
		"Tessaly": "Tessalian", "Ostrengard": "Ostrengardian",
		"Quillmark": "Quillmarkian", "Zephyria": "Zephyrian",
		"Brelandia": "Brelandian", "Corvenna": "Corvennan",
	}
	bandWords1 = []string{
		"Velvet", "Crimson", "Midnight", "Electric", "Golden", "Silent",
		"Burning", "Frozen", "Wandering", "Hollow", "Radiant", "Broken",
	}
	bandWords2 = []string{
		"Foxes", "Harbors", "Lanterns", "Saints", "Tides", "Arrows",
		"Meridians", "Wolves", "Orchids", "Pylons", "Sparrows", "Anchors",
	}
	filmWords1 = []string{
		"Shadow", "Winter", "Iron", "Glass", "Scarlet", "Last", "Silver",
		"Hidden", "Burning", "Distant", "Silent", "Golden", "Broken",
		"Endless", "Northern",
	}
	filmWords2 = []string{
		"Harvest", "Covenant", "Empire", "Voyage", "Reckoning", "Garden",
		"Horizon", "Citadel", "Sonata", "Crossing", "Kingdom", "Vigil",
		"Labyrinth", "Cartographer", "Meridian",
	}
	awardWords = []string{
		"Aurum", "Meridian", "Laurel", "Beacon", "Zenith", "Argent",
		"Corona", "Luminary", "Pinnacle", "Vanguard", "Sterling", "Apex",
		"Paragon", "Halcyon",
	}
	charityWords = []string{
		"Hope", "Bright Futures", "Open Hands", "Clear Water", "New Dawn",
		"Safe Harbor", "Green Fields", "First Light", "Warm Hearth",
		"Rising Tide",
	}
	roleFirst = []string{
		"Captain", "Doctor", "Professor", "Commander", "Detective",
		"Sergeant", "Baron", "Lady", "Agent", "Brother",
	}
	roleNames = []string{
		"Veyron", "Ashfall", "Corvus", "Maren", "Tindel", "Soren",
		"Vale", "Crow", "Hartman", "Quince", "Ilsa", "Dray",
	}
)

// NewWorld generates a world from the configuration.
func NewWorld(cfg Config) *World {
	cfg = cfg.withDefaults()
	w := &World{
		Config:   cfg,
		Entities: make(map[string]*Entity),
		Repo:     entityrepo.New(),
		Patterns: patterns.Default(),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		usedIDs:  make(map[string]int),
	}
	w.generateLocations()
	w.generateOrganizations()
	w.generateWorks()
	w.generateAwards()
	w.generatePeople()
	w.generateBackgroundFacts()
	w.generateEvents()
	w.generateEpisodes()
	w.buildRepo()
	w.indexFacts()
	return w
}

// indexFacts builds the fact index in one pass over Facts, so an article
// visits only the facts that can appear in it instead of all of them.
func (w *World) indexFacts() {
	w.bySubject = make(map[string][]int, len(w.Order))
	w.eventsByObject = make(map[string][]int)
	w.orderPos = make(map[string]int, len(w.Order))
	for i, id := range w.Order {
		w.orderPos[id] = i
	}
	for i := range w.Facts {
		f := &w.Facts[i]
		w.bySubject[f.Subject] = append(w.bySubject[f.Subject], i)
		if f.EventID < 0 {
			continue
		}
		for _, o := range f.Objects {
			if !o.IsEntity() {
				continue
			}
			if ids := w.eventsByObject[o.EntityID]; len(ids) == 0 || ids[len(ids)-1] != i {
				w.eventsByObject[o.EntityID] = append(ids, i)
			}
		}
	}
}

// Entity returns a world entity by ID (nil if unknown).
func (w *World) Entity(id string) *Entity { return w.Entities[id] }

// Fact returns a fact by ID.
func (w *World) Fact(id int) *Fact { return &w.Facts[id] }

// EntitiesOfType returns entity IDs whose type is subsumed by t, in order.
func (w *World) EntitiesOfType(t string) []string {
	var out []string
	for _, id := range w.Order {
		if entityrepo.Subsumes(t, w.Entities[id].Type) {
			out = append(out, id)
		}
	}
	return out
}

func (w *World) addEntity(e *Entity) *Entity {
	if e.Prominence == 0 {
		e.Prominence = 0.2 + w.rng.Float64()
	}
	w.Entities[e.ID] = e
	w.Order = append(w.Order, e.ID)
	return e
}

func (w *World) freshID(name string) string {
	base := strings.ReplaceAll(name, " ", "_")
	n := w.usedIDs[base]
	w.usedIDs[base] = n + 1
	if n == 0 {
		return base
	}
	return fmt.Sprintf("%s_(%d)", base, n)
}

func (w *World) addFact(subject, relation string, eventID int, objects ...Arg) int {
	id := len(w.Facts)
	w.Facts = append(w.Facts, Fact{
		ID: id, Subject: subject, Relation: relation,
		Objects: objects, EventID: eventID,
	})
	return id
}

func (w *World) pick(pool []string) string { return pool[w.rng.Intn(len(pool))] }

func (w *World) generateLocations() {
	for _, c := range countryNames {
		id := w.freshID(c)
		w.addEntity(&Entity{
			ID: id, Name: c, Type: entityrepo.TypeCountry,
			Gender: nlp.GenderNeuter, Prominence: 1.5 + w.rng.Float64(),
		})
	}
	for i := 0; i < w.Config.Cities; i++ {
		name := w.pick(cityParts1) + w.pick(cityParts2)
		name = strings.ToUpper(name[:1]) + name[1:]
		if _, dup := w.Entities[strings.ReplaceAll(name, " ", "_")]; dup {
			name = name + " " + w.pick([]string{"Heights", "Falls", "Springs"})
		}
		id := w.freshID(name)
		country := countryNames[i%len(countryNames)]
		e := w.addEntity(&Entity{
			ID: id, Name: name, Type: entityrepo.TypeCity,
			Gender: nlp.GenderNeuter, Country: country,
			Prominence: 0.5 + 2*w.rng.Float64(),
		})
		w.addFact(e.ID, "located_in", -1, EntityArg(country))
	}
}

func (w *World) generateOrganizations() {
	cities := w.EntitiesOfType(entityrepo.TypeCity)
	// Football clubs; a fraction share their city's bare name (deliberate
	// NED ambiguity, cf. the paper's Liverpool example).
	for i := 0; i < w.Config.Clubs; i++ {
		city := w.Entities[cities[i%len(cities)]]
		name := city.Name + " F.C."
		id := w.freshID(name)
		aliases := []string{city.Name + " FC"}
		if w.rng.Float64() < w.Config.AmbiguityRate {
			aliases = append(aliases, city.Name) // ambiguous with the city
		}
		e := w.addEntity(&Entity{
			ID: id, Name: name, Type: entityrepo.TypeFootballClub,
			Gender: nlp.GenderNeuter, Aliases: aliases, HomeCity: city.ID,
			Prominence: 0.8 + 1.5*w.rng.Float64(),
		})
		w.addFact(e.ID, "located_in", -1, EntityArg(city.ID))
	}
	for i := 0; i < w.Config.Bands; i++ {
		name := "The " + w.pick(bandWords1) + " " + w.pick(bandWords2)
		id := w.freshID(name)
		w.addEntity(&Entity{
			ID: id, Name: name, Type: entityrepo.TypeBand,
			Gender:  nlp.GenderNeuter,
			Aliases: []string{strings.TrimPrefix(name, "The ")},
		})
		_ = i
	}
	for i := 0; i < w.Config.Companies; i++ {
		name := w.pick(surnames) + " " + w.pick([]string{"Industries", "Motors", "Holdings", "Media", "Systems", "Energy"})
		id := w.freshID(name)
		city := w.Entities[cities[w.rng.Intn(len(cities))]]
		e := w.addEntity(&Entity{
			ID: id, Name: name, Type: entityrepo.TypeCompany,
			Gender: nlp.GenderNeuter, HomeCity: city.ID,
		})
		w.addFact(e.ID, "located_in", -1, EntityArg(city.ID))
	}
	for i := 0; i < w.Config.Universities; i++ {
		city := w.Entities[cities[(i*3)%len(cities)]]
		name := "University of " + city.Name
		id := w.freshID(name)
		e := w.addEntity(&Entity{
			ID: id, Name: name, Type: entityrepo.TypeUniversity,
			Gender: nlp.GenderNeuter, HomeCity: city.ID,
			Aliases: []string{city.Name + " University"},
		})
		w.addFact(e.ID, "located_in", -1, EntityArg(city.ID))
	}
	for i := 0; i < w.Config.Charities; i++ {
		name := "The " + charityWords[i%len(charityWords)] + " Foundation"
		id := w.freshID(name)
		w.addEntity(&Entity{
			ID: id, Name: name, Type: entityrepo.TypeCharity,
			Gender:  nlp.GenderNeuter,
			Aliases: []string{strings.TrimPrefix(name, "The ")},
		})
	}
	for i := 0; i < w.Config.Parties; i++ {
		name := w.pick([]string{"National", "Progressive", "Liberal", "Unity", "Reform", "Heritage", "Meridian", "Civic"}) + " Party"
		id := w.freshID(name)
		w.addEntity(&Entity{
			ID: id, Name: name, Type: entityrepo.TypeParty,
			Gender: nlp.GenderNeuter,
		})
	}
}

func (w *World) generateWorks() {
	for i := 0; i < w.Config.Films; i++ {
		name := "The " + w.pick(filmWords1) + " " + w.pick(filmWords2)
		id := w.freshID(name)
		w.addEntity(&Entity{
			ID: id, Name: name, Type: entityrepo.TypeFilm,
			Gender:  nlp.GenderNeuter,
			Aliases: []string{strings.TrimPrefix(name, "The ")},
		})
	}
	for i := 0; i < w.Config.Albums; i++ {
		name := w.pick(filmWords1) + " " + w.pick(bandWords2)
		id := w.freshID(name)
		w.addEntity(&Entity{
			ID: id, Name: name, Type: entityrepo.TypeAlbum,
			Gender: nlp.GenderNeuter,
		})
	}
	for i := 0; i < w.Config.Series; i++ {
		name := w.pick([]string{"Crown", "Throne", "Ember", "Frost", "Storm", "Cinder", "Raven", "Thorn"}) + " " +
			w.pick([]string{"Chronicles", "Dominion", "Legacy", "Saga", "Covenant", "Ascendant"})
		id := w.freshID(name)
		w.addEntity(&Entity{
			ID: id, Name: name, Type: entityrepo.TypeSeries,
			Gender: nlp.GenderNeuter, Prominence: 1.2,
		})
	}
}

func (w *World) generateAwards() {
	kinds := []string{"Award", "Prize", "Medal", "Trophy"}
	for i := 0; i < w.Config.Awards; i++ {
		display := awardWords[i%len(awardWords)] + " " + kinds[i%len(kinds)]
		id := w.freshID(display)
		w.addEntity(&Entity{
			ID: id, Name: display, Type: entityrepo.TypeAward,
			Gender:  nlp.GenderNeuter,
			Aliases: []string{awardWords[i%len(awardWords)] + " " + kinds[i%len(kinds)]},
		})
	}
}

// professions cycled over when generating people.
var professions = []string{
	entityrepo.TypeActor, entityrepo.TypeMusician, entityrepo.TypeFootballer,
	entityrepo.TypePolitician, entityrepo.TypeBusinessPerson,
	entityrepo.TypeScientist, entityrepo.TypeModel, entityrepo.TypeWriter,
	entityrepo.TypeDirector,
}

func (w *World) generatePeople() {
	cities := w.EntitiesOfType(entityrepo.TypeCity)
	for i := 0; i < w.Config.People; i++ {
		var first string
		gender := nlp.GenderMale
		if i%2 == 1 {
			gender = nlp.GenderFemale
		}
		if gender == nlp.GenderMale {
			first = maleFirst[(i/2)%len(maleFirst)]
		} else {
			first = femaleFirst[(i/2)%len(femaleFirst)]
		}
		// Reuse surnames deliberately: every surname is shared by several
		// persons, which creates the mention ambiguity NED must resolve.
		last := surnames[i%len(surnames)]
		name := first + " " + last
		id := w.freshID(name)
		prof := professions[i%len(professions)]
		city := w.Entities[cities[w.rng.Intn(len(cities))]]
		w.addEntity(&Entity{
			ID: id, Name: name, Type: prof, Gender: gender,
			Aliases:    []string{last, first + " " + last[:1] + "."},
			HomeCity:   city.ID,
			Prominence: zipf(w.rng, i),
		})
	}
}

// zipf gives earlier entities higher prominence with a heavy tail.
func zipf(rng *rand.Rand, i int) float64 {
	return 0.3 + 5.0/float64(1+i%37) + 0.3*rng.Float64()
}
