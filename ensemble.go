package swquake

import (
	"swquake/internal/ensemble"
)

// CampaignManager orchestrates ensemble campaigns over a JobService: a
// CampaignSpec expands deterministically into member jobs (heterogeneity
// seed sweeps crossed with parameter variations) whose surface PGV fields
// are folded online into hazard statistics — mean/std maps, exceedance
// probabilities, percentile maps — bit-identically regardless of member
// completion order. The implementation lives in internal/ensemble; the
// quaked daemon serves it as /v1/campaigns.
type CampaignManager = ensemble.Manager

// CampaignSpec declares a campaign: a base scenario plus sweep axes.
type CampaignSpec = ensemble.CampaignSpec

// CampaignSeedAxis sweeps stochastic velocity-heterogeneity realizations.
type CampaignSeedAxis = ensemble.SeedAxis

// CampaignOptions configures a CampaignManager (job service, logging,
// tracing); a durable service makes its campaigns durable too.
type CampaignOptions = ensemble.Options

// CampaignStatus is a campaign's externally visible state and progress.
type CampaignStatus = ensemble.Status

// CampaignAggregate is the online statistical hazard product over the
// members folded so far.
type CampaignAggregate = ensemble.Aggregate

// Sentinel errors a CampaignManager returns.
var (
	ErrUnknownCampaign = ensemble.ErrUnknownCampaign
	ErrCampaignsClosed = ensemble.ErrClosed
)

// OpenCampaignManager starts a campaign manager over a job service,
// recovering unfinished campaigns when the service is durable (has a data
// directory).
func OpenCampaignManager(opts CampaignOptions) (*CampaignManager, error) {
	return ensemble.Open(opts)
}
