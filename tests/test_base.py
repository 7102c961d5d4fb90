"""The point-or-batch rule shared by every per-model helper."""

import numpy as np
import pytest
from scipy.special import expit

import claslab as cl

PROBLEM = cl.equal_cov_problem(0.5, [1.0, 0.4], [-1.0, -0.4])
DS = cl.sample(PROBLEM, 40, seed=1)
BATCH = cl.sample(PROBLEM, 2, seed=2).features


def helpers():
    """(helper, its first argument, the batch answer it must agree with)."""
    lda = cl.fit_lda(DS)
    parzen = cl.fit_parzen(DS, 0.7)
    km = cl.train_kernel_machine(DS, cl.Kernel("rbf"), 0.1)
    boost = cl.adaboost(DS, 5)
    knn = cl.fit_knn(DS, 3)
    tree = cl.fit_tree(DS, 3)
    net = cl.train_net(DS, cl.NetTrainConfig(max_iters=20))
    logistic = cl.train_logistic(DS, lam=0.1)
    return {
        "lda_decision": (cl.lda_decision, lda, lda.decision_function),
        "parzen_decision": (cl.parzen_decision, parzen, parzen.decision_function),
        "km_decision": (cl.km_decision, km, km.decision_function),
        "boost_score": (cl.boost_score, boost, boost.decision_function),
        "knn_classify": (cl.knn_classify, knn, knn.predict),
        "tree_classify": (cl.tree_classify, tree, tree.predict),
        "net_forward": (cl.net_forward, net, net.forward),
        "posterior_pos": (
            cl.posterior_pos, logistic, lambda X: expit(logistic.decision_function(X))
        ),
        "bayes_classify": (
            cl.bayes_classify, PROBLEM, cl.BayesClassifier(PROBLEM).predict
        ),
    }


HELPERS = helpers()


@pytest.mark.parametrize("name", sorted(HELPERS))
def test_point_or_batch(name):
    helper, owner, batch_answer = HELPERS[name]
    batch = helper(owner, BATCH)
    np.testing.assert_array_equal(batch, batch_answer(BATCH))
    # the same point as a one-row batch: a two-row matrix product may round
    # a row's score differently in the last bit
    single = helper(owner, BATCH[0])
    assert type(single) in (float, int)
    assert single == helper(owner, BATCH[:1])[0]
    assert single == pytest.approx(batch[0], rel=1e-14, abs=1e-14)
    with pytest.raises(ValueError, match="expected 2-dimensional inputs"):
        helper(owner, [0.0, 1.0, 2.0])
