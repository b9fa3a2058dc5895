"""Independent reference implementations shared by the test modules.

Everything here computes densities and evidence weights straight from
scipy.stats, the probability chain rule, and explicit mixture sums. No
conditioning, Cholesky, or scoring code is shared with the package, so
agreement between the two routes is a real cross-check.

contract_bound is the numerics contract's tolerance (README, "Numerics
contract"), computed here from the oracle's own densities.
"""

import math

import numpy as np
from scipy import stats
from scipy.special import logsumexp

from woexplain import GaussianClassModel


def joint_logpdf(model, c, indices, values):
    """Marginal joint log density via scipy.stats only."""
    idx = list(indices)
    mean = model.means[c][idx]
    if model.mode == "diagonal":
        sd = np.sqrt(model.covariances[c][idx])
        return float(np.sum(stats.norm.logpdf(values, mean, sd)))
    cov = model.covariances[c][np.ix_(idx, idx)]
    return float(stats.multivariate_normal(mean, cov).logpdf(values))


# c in the contract's bound c * eps * kappa * (sum over the classes read of |log prior|
# + |J(prefix)| + |J(prefix + target)|), with kappa the largest condition number of their
# (prefix + target) covariance blocks, 1 in diagonal mode: the scipy oracle itself loses
# about log10(kappa) digits, so no kappa-free c bounds both routes at kappa = 1e8 and
# still says something at kappa = 1
ORACLE_SLACK = 16.0


def contract_bound(model, classes, prefix, target, x):
    """The contract's bound on a number the package reads from the densities of x.

    classes are the classes whose densities the number combines; prefix
    and target index the full input vector x, and the number is read
    from x[prefix + target] given x[prefix]. Each J is the oracle's
    joint_logpdf, and J of an empty prefix is 0.
    """
    x = np.asarray(x, dtype=float)
    prefix, both = list(prefix), list(prefix) + list(target)
    scale = sum(abs(math.log(model.priors[c]))
                + (abs(joint_logpdf(model, c, prefix, x[prefix])) if prefix else 0.0)
                + abs(joint_logpdf(model, c, both, x[both])) for c in classes)
    kappa = 1.0 if model.mode == "diagonal" else max(
        np.linalg.cond(model.covariances[c][np.ix_(both, both)]) for c in classes)
    return ORACLE_SLACK * np.finfo(float).eps * kappa * scale


def conditional_logpdf(model, c, target, x_t, prefix, x_p):
    """Conditional density from the chain rule: joint over prefix marginal."""
    if not len(prefix):
        return joint_logpdf(model, c, target, x_t)
    both = list(target) + list(prefix)
    x_both = np.concatenate([np.atleast_1d(x_t), np.atleast_1d(x_p)])
    return joint_logpdf(model, c, both, x_both) - joint_logpdf(model, c, prefix, x_p)


def set_conditional(model, classes, target, x_t, prefix=(), x_p=()):
    """Prefix-posterior-weighted mixture of per-class conditionals."""
    cs = list(classes)
    logw = np.log(model.priors[cs])
    if len(prefix):
        logw = logw + np.array([joint_logpdf(model, c, prefix, x_p) for c in cs])
    vals = np.array([
        conditional_logpdf(model, c, target, x_t, prefix, x_p) for c in cs
    ])
    return float(logsumexp(logw + vals) - logsumexp(logw))


def woe_between(model, set_a, set_b, target, x_t, prefix=(), x_p=()):
    """Log likelihood ratio of two class sets, scipy route end to end."""
    return set_conditional(model, set_a, target, x_t, prefix, x_p) - set_conditional(
        model, set_b, target, x_t, prefix, x_p
    )


def random_model(rng, n_classes, n_features, mode="full"):
    means = rng.normal(0.0, 2.0, size=(n_classes, n_features))
    if mode == "full":
        a = rng.normal(size=(n_classes, n_features, n_features))
        covs = a @ a.transpose(0, 2, 1) / n_features + 0.5 * np.eye(n_features)
    else:
        covs = rng.uniform(0.3, 2.5, size=(n_classes, n_features))
    weights = rng.uniform(0.5, 2.0, size=n_classes)
    model = GaussianClassModel(
        means=means,
        covariances=covs,
        priors=weights / weights.sum(),
        mode=mode,
        feature_names=tuple(f"x{i}" for i in range(n_features)),
    )
    return model.validate()


def conditioned_model(rng, k, n, cond):
    """A full model of k classes whose covariance eigenvalues span a factor cond."""
    covs = []
    for _ in range(k):
        q = stats.ortho_group.rvs(n, random_state=rng)
        cov = (q * (np.logspace(0.0, -np.log10(cond), n) * rng.uniform(0.5, 2.0))) @ q.T
        covs.append((cov + cov.T) / 2.0)
    weights = rng.uniform(0.5, 2.0, size=k)
    return GaussianClassModel(
        means=rng.normal(0.0, 2.0, size=(k, n)),
        covariances=np.array(covs),
        priors=weights / weights.sum(),
        mode="full",
        feature_names=tuple(f"x{i}" for i in range(n)),
    ).validate()


def random_split(rng, n_features):
    """A random (target, prefix) pair of disjoint coordinate sets."""
    perm = [int(i) for i in rng.permutation(n_features)]
    t_size = int(rng.integers(1, n_features))
    p_size = int(rng.integers(0, n_features - t_size + 1))
    return tuple(perm[:t_size]), tuple(perm[t_size:t_size + p_size])


def random_ordered_partition(rng, indices):
    """Shuffle indices and split them into consecutive nonempty groups."""
    perm = [int(i) for i in rng.permutation(list(indices))]
    n_groups = int(rng.integers(1, len(perm) + 1))
    cuts = sorted(rng.choice(range(1, len(perm)), size=n_groups - 1, replace=False))
    return [tuple(g) for g in np.split(np.array(perm), cuts)]
