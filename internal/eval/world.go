package eval

import (
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/infobox"
	"repro/internal/learn"
	"repro/internal/world"
)

// World is a learned world with what only the experiments read: the EM
// observations, the online engine, the infobox and the web documents.
type World struct {
	*world.World
	Obs     []learn.Observation
	Engine  *core.Engine
	Infobox *infobox.Infobox
	WebDocs []string
}

// BuildWorld runs world.Learn, adds the infobox (Table 4's ground truth)
// and the web documents (the bootstrapping baseline's corpus), and wires
// the online engine over the in-process store, answering as the "kbqa"
// system.
func BuildWorld(cfg world.Config) *World {
	lw, obs := world.Learn(cfg)
	w := &World{
		World:   lw,
		Obs:     obs,
		Engine:  core.NewEngine(lw.Symbols, core.LocalIndex(lw.KB.Store), lw.KB.Taxonomy, lw.Model, lw.Stats),
		Infobox: infobox.Build(lw.KB.Store, cfg.Seed+2),
		WebDocs: corpus.GenerateWebDocs(lw.KB, cfg.Seed+3, cfg.PairsPerIntent),
	}
	w.Systems["kbqa"] = &KBQASystem{Engine: w.Engine, Label: "KBQA+" + cfg.Flavor.String()}
	return w
}
